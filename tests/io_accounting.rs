//! Exact I/O accounting (DESIGN.md §13): the observability layer's
//! end-of-run counters must equal the device's own statistics bit-for-bit,
//! the per-superstep trace must sum to the same totals and keep one record
//! per superstep however long the run, the whole trace must be identical
//! for every worker-thread count, and the trace JSONL and Prometheus text
//! must parse with the schema their consumers (the CI metrics artifact,
//! dashboards) rely on.

use std::sync::Arc;

use multilogvc::apps::{Bfs, PageRank, RandomWalk, Wcc};
use multilogvc::core::{
    Engine, EngineConfig, InitActive, MultiLogEngine, ReferenceEngine, RunReport, SuperstepStats,
    TieringConfig, Update, VertexCtx, VertexProgram,
};
use multilogvc::graph::{Csr, EdgeMutation, StoredGraph, VertexId, VertexIntervals};
use multilogvc::mutate::{MutationConfig, MutationLog};
use multilogvc::obs::json::{parse, Json};
use multilogvc::ssd::{FtlConfig, Ssd, SsdConfig, SsdStatsSnapshot};

fn mini_graph() -> Csr {
    mlvc_gen::cf_mini(9, 11).graph
}

/// A run's trace: one row per phase, seeding first.
type Trace = Vec<[(&'static str, u64); 35]>;

fn trace(r: &RunReport) -> Trace {
    r.phases().map(SuperstepStats::trace_fields).collect()
}

/// Run `prog` on a device with a live FTL; return the report and the
/// device's stats delta over exactly the engine run (stats are reset after
/// graph storing).
fn run_with_obs(prog: &dyn VertexProgram, steps: usize) -> (RunReport, SsdStatsSnapshot) {
    let g = mini_graph();
    let iv = VertexIntervals::uniform(g.num_vertices(), 5);
    let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
    let sg = StoredGraph::store_with(&ssd, &g, "io", iv).unwrap();
    ssd.stats().reset();
    ssd.enable_ftl(FtlConfig::default());
    let cfg = EngineConfig::default().with_memory(512 << 10);
    let mut e = MultiLogEngine::new(Arc::clone(&ssd), sg, cfg);
    let r = e.run(prog, steps);
    assert!(!r.supersteps.is_empty(), "{} did no work", prog.name());
    (r, ssd.stats().snapshot())
}

fn counter(r: &RunReport, name: &str) -> u64 {
    r.obs
        .as_ref()
        .and_then(|s| s.counter(name))
        .unwrap_or_else(|| panic!("counter {name} missing"))
}

/// The registry's `mlvc_ssd_*` counters equal the device stats exactly —
/// every page, byte, batch, and simulated nanosecond.
#[test]
fn registry_counters_equal_device_stats_exactly() {
    for (name, prog, steps) in [
        ("bfs", Box::new(Bfs::new(1)) as Box<dyn VertexProgram>, 60),
        ("pagerank", Box::new(PageRank::new(0.85, 1e-9)), 40),
    ] {
        let (r, dev) = run_with_obs(prog.as_ref(), steps);
        let pairs = [
            ("mlvc_ssd_pages_read_total", dev.pages_read),
            ("mlvc_ssd_pages_written_total", dev.pages_written),
            ("mlvc_ssd_bytes_read_total", dev.bytes_read),
            ("mlvc_ssd_bytes_written_total", dev.bytes_written),
            ("mlvc_ssd_useful_bytes_read_total", dev.useful_bytes_read),
            ("mlvc_ssd_read_batches_total", dev.read_batches),
            ("mlvc_ssd_write_batches_total", dev.write_batches),
            ("mlvc_ssd_read_time_ns_total", dev.read_time_ns),
            ("mlvc_ssd_write_time_ns_total", dev.write_time_ns),
        ];
        for (key, want) in pairs {
            assert_eq!(counter(&r, key), want, "{name}: {key} vs device stats");
        }
        assert!(dev.pages_read > 0 && dev.pages_written > 0, "{name}: workload did I/O");
    }
}

/// The per-superstep trace (seed record included) sums to the same totals
/// the device reports — nothing the engine does escapes the trace.
#[test]
fn trace_sums_to_device_totals() {
    for (name, prog, steps) in [
        ("bfs", Box::new(Bfs::new(1)) as Box<dyn VertexProgram>, 60),
        ("pagerank", Box::new(PageRank::new(0.85, 1e-9)), 40),
    ] {
        let (r, dev) = run_with_obs(prog.as_ref(), steps);
        let sum = |f: fn(&SuperstepStats) -> u64| -> u64 { r.phases().map(f).sum() };
        assert_eq!(sum(|t| t.io.pages_read), dev.pages_read, "{name}: pages_read");
        assert_eq!(sum(|t| t.io.pages_written), dev.pages_written, "{name}: pages_written");
        assert_eq!(sum(|t| t.io.bytes_read), dev.bytes_read, "{name}: bytes_read");
        assert_eq!(sum(|t| t.io.bytes_written), dev.bytes_written, "{name}: bytes_written");
        assert_eq!(
            sum(|t| t.io.useful_bytes_read),
            dev.useful_bytes_read,
            "{name}: useful_bytes_read"
        );
        // The multilog's own byte accounting agrees with the registry.
        let ml = r.multilog.expect("multilog stats present");
        assert_eq!(sum(|t| t.log_bytes_appended), ml.bytes_appended, "{name}: log bytes");
        assert_eq!(sum(|t| t.log_pages_flushed), ml.pages_flushed, "{name}: log pages");
        assert_eq!(sum(|t| t.log_pages_carried), ml.pages_carried, "{name}: carried pages");
        // FTL: host writes over the run equal the device's page writes
        // (every charged write lands on exactly one logical page).
        assert_eq!(sum(|t| t.ftl_host_writes), dev.pages_written, "{name}: host writes");
    }
}

/// Golden upper bounds for the paper's headline metric: read amplification
/// of the log-structured engine on the mini graph. The bounds are measured
/// values plus headroom — they catch regressions that start re-reading
/// cold pages, not noise.
#[test]
fn read_amplification_within_golden_bounds() {
    let (bfs, _) = run_with_obs(&Bfs::new(1), 60);
    let (pr, _) = run_with_obs(&PageRank::new(0.85, 1e-9), 40);
    let bfs_amp = bfs.read_amplification().expect("bfs read amplification");
    let pr_amp = pr.read_amplification().expect("pagerank read amplification");
    // Measured on the seed workload: bfs 1.136, pagerank 1.036 (1.123 and
    // 1.048 with fixed 16-byte log records: a sparse tail page now carries
    // fewer useful bytes, a full one more messages). The log pages the
    // engine reads are nearly fully useful by construction, so the band
    // sits close above the measurement.
    assert!((1.0..1.25).contains(&bfs_amp), "bfs read amplification {bfs_amp}");
    assert!((1.0..1.15).contains(&pr_amp), "pagerank read amplification {pr_amp}");
    // Flash write amplification exists and is sane (fresh device, little GC).
    let wa = bfs.write_amplification().expect("bfs write amplification");
    assert!((1.0..2.0).contains(&wa), "bfs write amplification {wa}");
}

/// The full trace — every field of every record — is bit-identical for 1,
/// 2, and 8 worker threads (the determinism contract of DESIGN.md §13).
#[test]
fn trace_bit_identical_across_thread_counts() {
    let mut baseline: Option<(Vec<u64>, Trace)> = None;
    for threads in [1usize, 2, 8] {
        mlvc_par::set_thread_override(Some(threads));
        let g = mini_graph();
        let iv = VertexIntervals::uniform(g.num_vertices(), 5);
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let sg = StoredGraph::store_with(&ssd, &g, "t", iv).unwrap();
        ssd.enable_ftl(FtlConfig::default());
        let cfg = EngineConfig::default().with_memory(512 << 10);
        let mut e = MultiLogEngine::new(ssd, sg, cfg);
        let r = e.run(&PageRank::new(0.85, 1e-9), 40);
        let got = (e.states().to_vec(), trace(&r));
        match &baseline {
            None => baseline = Some(got),
            Some(want) => {
                assert_eq!(got.0, want.0, "states diverge at {threads} threads");
                assert_eq!(got.1, want.1, "trace diverges at {threads} threads");
            }
        }
        // The Prometheus exposition is deterministic text, too.
        let prom = r.prometheus_text();
        assert!(prom.contains("mlvc_ssd_pages_read_total"));
    }
    mlvc_par::set_thread_override(None);
}

/// Reading ahead moves no page, whoever decodes what was read: an
/// asynchronous run keeps several fused batches in flight, and at one
/// thread (the owner decodes each where it retires it) and two (look-ahead
/// workers decode the batches read ahead) it reads and writes exactly the
/// same pages, bytes and batches, superstep by superstep, on the same
/// simulated clock.
#[test]
fn async_read_ahead_moves_the_same_pages_at_one_and_two_threads() {
    let run = |threads: usize| {
        mlvc_par::set_thread_override(Some(threads));
        let g = mini_graph();
        let iv = VertexIntervals::uniform(g.num_vertices(), 16);
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let sg = StoredGraph::store_with(&ssd, &g, "io", iv).unwrap();
        ssd.stats().reset();
        ssd.enable_ftl(FtlConfig::default());
        // Tight enough that a superstep splits into several fused batches
        // and the write side flushes pages the same superstep drains.
        let cfg = EngineConfig::default().with_memory(16 << 10).with_async(true);
        let mut e = MultiLogEngine::new(Arc::clone(&ssd), sg, cfg);
        let r = e.run(&Wcc, 80);
        mlvc_par::set_thread_override(None);
        assert!(r.converged && r.interrupted.is_none());
        (e.states().to_vec(), r, ssd.stats().snapshot())
    };
    let (one_states, one, one_dev) = run(1);
    let (states, two, dev) = run(2);
    assert_eq!(states, one_states);
    let batches = |s: &SuperstepStats| s.batches_inline + s.batches_handed_off;
    assert!(one.supersteps.iter().any(|s| batches(s) > 1), "one batch per superstep");
    assert!(one.supersteps.iter().any(|s| s.max_inflight > 1), "nothing was read ahead");
    let counts = |d: &SsdStatsSnapshot| {
        [
            d.pages_read,
            d.pages_written,
            d.bytes_read,
            d.bytes_written,
            d.useful_bytes_read,
            d.read_batches,
            d.write_batches,
        ]
    };
    assert_eq!(counts(&dev), counts(&one_dev), "device totals");
    assert_eq!(two.supersteps.len(), one.supersteps.len());
    for (a, b) in two.supersteps.iter().zip(&one.supersteps) {
        assert_eq!(counts(&a.io), counts(&b.io), "superstep {}", a.superstep);
    }
    assert_eq!(two.total_sim_time_ns(), one.total_sim_time_ns());
}

/// Per superstep: pages read, useful bytes read, read batches.
type ReadCounts = Vec<(u64, u64, u64)>;

/// Run `prog` synchronously on the mini graph in four intervals under
/// `memory` bytes. Every read of each superstep must ride its I/O queue —
/// the read time is all queue wait — with row pointers and column indices
/// of two intervals in flight at once; returns the supersteps.
fn four_interval_run(prog: &dyn VertexProgram, steps: usize, memory: usize) -> Vec<SuperstepStats> {
    four_interval_engine(prog, steps, memory).1
}

/// [`four_interval_run`], with the run's final states.
fn four_interval_engine(
    prog: &dyn VertexProgram,
    steps: usize,
    memory: usize,
) -> (Vec<u64>, Vec<SuperstepStats>) {
    let g = mini_graph();
    let iv = VertexIntervals::uniform(g.num_vertices(), 4);
    let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
    let sg = StoredGraph::store_with(&ssd, &g, "ahead", iv).unwrap();
    let cfg = EngineConfig::default().with_memory(memory);
    let mut engine = MultiLogEngine::new(ssd, sg, cfg);
    let r = engine.run(prog, steps);
    assert!(r.interrupted.is_none());
    for s in &r.supersteps {
        let what = format!("{} superstep {}", prog.name(), s.superstep);
        assert_eq!(s.io.read_time_ns, s.io_wait_ns, "{what}: a read off the queue");
        assert!(s.max_inflight >= 4, "{what}: {} tickets in flight", s.max_inflight);
    }
    (engine.states().to_vec(), r.supersteps)
}

fn read_counts(steps: &[SuperstepStats]) -> ReadCounts {
    steps.iter().map(|s| (s.io.pages_read, s.io.useful_bytes_read, s.io.read_batches)).collect()
}

fn fused_batches(s: &SuperstepStats) -> u64 {
    s.batches_inline + s.batches_handed_off
}

/// The load stage reading one interval ahead moves no page: a synchronous
/// PageRank and a random walk over four intervals in one fused batch read
/// the same pages, useful bytes and batches, superstep by superstep, as
/// when every adjacency read was a synchronous `read_batch` (the literals),
/// and every read of a superstep now rides its I/O queue — the read time
/// is all queue wait — with the next interval's tickets in flight beside
/// the current one's. The literals read no log page carried across a
/// boundary in host memory (DESIGN.md §10): PageRank's carried tail grows
/// by a period's remainder each superstep, and the walk's whole log is
/// carried, so its log batch reads nothing.
#[test]
fn reading_adjacency_one_interval_ahead_moves_no_page() {
    let run = |prog: &dyn VertexProgram, steps: usize| -> ReadCounts {
        let supersteps = four_interval_run(prog, steps, 512 << 10);
        for s in &supersteps {
            let what = format!("{} superstep {}", prog.name(), s.superstep);
            assert_eq!(fused_batches(s), 1, "{what}: one fused batch");
        }
        read_counts(&supersteps)
    };
    let pagerank = run(&PageRank::new(0.85, 1e-9), 6);
    assert_eq!(
        pagerank,
        [
            (48, 11_681, 8),
            (429, 106_153, 9),
            (413, 102_185, 9),
            (397, 98_217, 9),
            (381, 94_249, 9),
            (365, 90_281, 9),
        ]
    );
    assert_eq!(
        run(&RandomWalk::new(7, 2, 6), 20),
        [
            (41, 1_748, 8),
            (45, 4_633, 8),
            (47, 5_497, 8),
            (45, 5_637, 8),
            (46, 5_530, 8),
            (47, 5_438, 8),
            (45, 5_235, 8),
        ]
    );
}

/// Looking ahead across a fused-batch boundary moves no page either: with
/// one interval per fused batch, as on `pr-cf`, every dense superstep of a
/// synchronous PageRank retires each next batch and submits its first
/// interval's reads before the interval ahead of it is retired, and reads
/// the same pages, useful bytes and batches as when the look-ahead stopped
/// at each batch's end (the literals) — three more read batches than the
/// one-batch run above, one per extra log ticket. The carried log tail
/// repeats every three supersteps here, and so do the literals.
#[test]
fn crossing_a_fused_batch_boundary_moves_no_page() {
    let supersteps = four_interval_run(&PageRank::new(0.85, 1e-9), 6, 32 << 10);
    for s in &supersteps[1..] {
        assert_eq!(fused_batches(s), 4, "superstep {}: one interval a batch", s.superstep);
    }
    let (a, b, c) = ((422, 104_417, 12), (399, 98_713, 12), (375, 92_761, 12));
    assert_eq!(read_counts(&supersteps), [(48, 11_681, 8), a, b, c, a, b]);
}

/// Writing the multi-log's evictions behind on the superstep's queue moves
/// no page: a synchronous PageRank over four intervals in three fused
/// batches, its log evicting in every superstep, writes and reads the same
/// pages, bytes and batches, superstep by superstep, as when every
/// eviction was a synchronous `append_scattered` (the literals); a read
/// that queues behind a write is still queue wait; and the states are the
/// reference engine's. The tail each superstep carries in host memory is
/// neither written nor read; it repeats every three supersteps.
#[test]
fn writing_evictions_behind_moves_no_page() {
    let g = mini_graph();
    let pagerank = PageRank::new(0.85, 1e-9);
    let (states, supersteps) = four_interval_engine(&pagerank, 6, 64 << 10);
    let mut reference = ReferenceEngine::new(g, EngineConfig::default().seed);
    reference.run(&pagerank, 6);
    assert_eq!(states, reference.states());
    for s in &supersteps[1..] {
        assert_eq!(fused_batches(s), 3, "superstep {}: three fused batches", s.superstep);
    }
    for s in &supersteps {
        assert!(s.log_evictions > 0, "superstep {}: no eviction", s.superstep);
    }
    let counts: Vec<_> = supersteps
        .iter()
        .map(|s| {
            let io = &s.io;
            [
                io.pages_written,
                io.bytes_written,
                s.log_pages_flushed,
                io.write_batches,
                io.pages_read,
                io.useful_bytes_read,
            ]
        })
        .collect();
    assert_eq!(
        counts,
        [
            [374, 95_744, 374, 6, 48, 11_681],
            [351, 89_856, 351, 6, 422, 104_417],
            [327, 83_712, 327, 6, 399, 98_713],
            [374, 95_744, 374, 6, 375, 92_761],
            [351, 89_856, 351, 6, 422, 104_417],
            [327, 83_712, 327, 6, 399, 98_713],
        ]
    );
}

/// Every nanosecond of a superstep's simulated compute advances its I/O
/// queue's clock, and nothing else does, in both computation models:
/// `close_out` holds the queue's `advanced_ns` equal to `compute_ns` (a
/// debug assertion, so a debug build checks it on every engine test). The
/// four legs are the shapes that charge compute at different points — a
/// synchronous PageRank of several fused batches a superstep, a walk of one,
/// an asynchronous WCC (whose inboxes drain the write side, compute
/// counted as each interval is prepared) and a tiered PageRank (cache hits
/// take no channel time) — each checked to be that shape. The tiered leg's
/// pin budget is above PageRank's largest held log tail, so the ranking
/// has bytes left for topology pins and the leg reads through them.
#[test]
fn queue_clock_advances_by_the_compute_in_both_models() {
    let run = |prog: &dyn VertexProgram, cfg: EngineConfig, intervals: usize| {
        let g = mini_graph();
        let iv = VertexIntervals::uniform(g.num_vertices(), intervals);
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let sg = StoredGraph::store_with(&ssd, &g, "clock", iv).unwrap();
        let r = MultiLogEngine::new(ssd, sg, cfg).run(prog, 40);
        assert!(r.interrupted.is_none(), "{}", prog.name());
        r
    };
    let pagerank = PageRank::new(0.85, 1e-4);
    let sync = run(&pagerank, EngineConfig::default().with_memory(32 << 10), 4);
    assert!(sync.supersteps.iter().any(|s| fused_batches(s) > 1), "pagerank: one batch only");
    let walk = run(&RandomWalk::new(7, 2, 6), EngineConfig::default().with_memory(512 << 10), 4);
    assert!(walk.supersteps.iter().all(|s| fused_batches(s) == 1), "walk: several batches");
    let cfg = EngineConfig::default().with_memory(16 << 10).with_async(true);
    let wcc = run(&Wcc, cfg, 16);
    assert!(wcc.supersteps.iter().any(|s| fused_batches(s) > 1), "wcc: one batch only");
    let tiering = TieringConfig { cache_bytes: 8 << 10, pin_budget_bytes: 128 << 10 };
    let cfg = EngineConfig::default().with_memory(32 << 10).with_tiering(tiering);
    let tiered = run(&pagerank, cfg, 4);
    assert!(tiered.supersteps.iter().any(|s| s.cache_hits > 0), "tiered: no cache hit");
    for r in [&sync, &walk, &wcc, &tiered] {
        assert!(r.supersteps.iter().all(|s| s.compute_ns > 0));
    }
}

/// Every superstep's simulated time is what it was charged, term by term
/// (DESIGN.md §5): its compute, the read wait and the write wait its I/O
/// queue charged (submission stalls, residual waits, write drains), and
/// the time of its synchronous device calls — of which the benchmark's
/// four pinned shapes, in miniature here, make none inside a superstep:
/// a synchronous PageRank of several fused batches a superstep (`pr-cf`),
/// the same on a pinned tier (`pr-cf-tiered`), a random walk (`rw-cf`), and
/// an incremental WCC after a merge of added and removed edges
/// (`wcc-mutate`, whose merge runs before its first superstep).
#[test]
fn simulated_time_is_compute_plus_the_queue_charges_in_every_pinned_shape() {
    let g = mini_graph();
    let store = |tag: &str| {
        let iv = VertexIntervals::uniform(g.num_vertices(), 4);
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let sg = Arc::new(StoredGraph::store_with(&ssd, &g, tag, iv).unwrap());
        (ssd, sg)
    };
    let run = |prog: &dyn VertexProgram, cfg: EngineConfig, tag: &str| {
        let (ssd, sg) = store(tag);
        let r = MultiLogEngine::with_shared_graph(ssd, sg, cfg).run(prog, 40);
        assert!(r.interrupted.is_none(), "{tag}");
        r
    };
    let pagerank = PageRank::new(0.85, 1e-4);
    let pr = run(&pagerank, EngineConfig::default().with_memory(32 << 10), "pr");
    let tiering = TieringConfig { cache_bytes: 0, pin_budget_bytes: 128 << 10 };
    let cfg = EngineConfig::default().with_memory(32 << 10).with_tiering(tiering);
    let tiered = run(&pagerank, cfg, "tiered");
    let rw = run(&RandomWalk::new(7, 2, 6), EngineConfig::default().with_memory(512 << 10), "rw");
    let wcc = {
        let (ssd, sg) = store("wcc");
        let cfg = EngineConfig::default().with_memory(32 << 10);
        let mut eng = MultiLogEngine::with_shared_graph(Arc::clone(&ssd), Arc::clone(&sg), cfg);
        assert!(eng.run(&Wcc, 40).converged);
        let n = g.num_vertices() as VertexId;
        let batch: Vec<EdgeMutation> = (0..24)
            .map(|k| EdgeMutation::add(k * 7 % n, (k * 13 + 5) % n))
            .chain((0..8).filter_map(|v| g.out_edges(v).first().map(|&d| EdgeMutation::remove(v, d))))
            .collect();
        let mut mlog =
            MutationLog::new(ssd, sg.intervals().clone(), MutationConfig::default(), "wcc").unwrap();
        mlog.ingest(&batch).unwrap();
        eng.attach_mutations(Arc::new(multilogvc::ssd::sync::Mutex::new(mlog))).unwrap();
        let r = eng.reconverge(&Wcc, 40);
        assert!(r.interrupted.is_none() && r.mutations.is_some_and(|m| m.merges == 1));
        r
    };
    assert!(pr.supersteps.iter().any(|s| fused_batches(s) > 1), "pr: one batch only");
    assert!(tiered.supersteps.iter().any(|s| s.pinned_hits > 0), "tiered: no pinned hit");
    assert!(rw.supersteps.iter().all(|s| fused_batches(s) == 1), "rw: several batches");
    for (name, r) in [("pr", &pr), ("tiered", &tiered), ("rw", &rw), ("wcc", &wcc)] {
        assert!(!r.supersteps.is_empty(), "{name}");
        for s in &r.supersteps {
            let what = format!("{name} superstep {}", s.superstep);
            assert!(!s.checkpointed && s.mutations.merges == 0 && s.edge_log_pages == 0, "{what}");
            assert_eq!(
                s.sim_time_ns(),
                s.compute_ns + s.io_wait_ns + s.write_wait_ns,
                "{what}: {} read, {} written",
                s.io.read_time_ns,
                s.io.write_time_ns
            );
        }
    }
    let writes: u64 = pr.supersteps.iter().map(|s| s.write_wait_ns).sum();
    assert!(writes > 0, "pr: no write wait charged");
}

/// Topology pins fill from the load stage's own reads (DESIGN.md §18): a
/// retier claims the newly ranked intervals' files and reads nothing, so
/// on a synchronous tiered PageRank whose pins land mid-run every read of
/// a superstep still rides its I/O queue — the read time is all queue
/// wait, in every superstep — and the landed pins serve hits.
#[test]
fn topology_pins_fill_from_reads_on_the_queue() {
    let g = mini_graph();
    let iv = VertexIntervals::uniform(g.num_vertices(), 4);
    let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
    let sg = StoredGraph::store_with(&ssd, &g, "claim", iv).unwrap();
    let tiering = TieringConfig { cache_bytes: 8 << 10, pin_budget_bytes: 128 << 10 };
    let cfg = EngineConfig::default().with_memory(32 << 10).with_tiering(tiering);
    let r = MultiLogEngine::new(ssd, sg, cfg).run(&PageRank::new(0.85, 1e-4), 40);
    assert!(r.interrupted.is_none());
    for s in &r.supersteps {
        assert_eq!(s.io.read_time_ns, s.io_wait_ns, "superstep {}: a read off the queue", s.superstep);
    }
    let landed = r.supersteps.windows(2).any(|w| w[1].pinned_pages > w[0].pinned_pages);
    assert!(landed, "no pin landed after the first superstep");
    assert!(r.supersteps.iter().any(|s| s.pinned_hits > 0), "no pinned hit");
}

fn num(v: &Json, key: &str) -> f64 {
    v.get(key)
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("field {key} missing or not a number"))
}

/// A library run with the obs layer on emits a metrics snapshot and a
/// trace that round-trip through `mlvc_obs::json` — the workspace's own
/// parser, so a malformed emitter and a broken parser both fail here —
/// with the full schema.
#[test]
fn metrics_snapshot_and_trace_jsonl_match_schema() {
    let (r, _) = run_with_obs(&PageRank::new(0.85, 1e-4), 8);

    // Snapshot: counters, gauges and histograms with the wired families.
    let snap = r.obs.as_ref().expect("obs snapshot present");
    for key in [
        "mlvc_ssd_pages_read_total",
        "mlvc_ssd_bytes_written_total",
        "mlvc_log_bytes_appended_total",
        "mlvc_ftl_physical_writes_total",
        "mlvc_engine_supersteps_total",
    ] {
        assert!(snap.counters[key] > 0, "counter {key} populated");
    }
    assert!(snap.gauges["mlvc_read_amplification_milli"] >= 1000);
    assert!(!snap.histograms.is_empty(), "at least one histogram");
    for (name, h) in &snap.histograms {
        assert_eq!(h.buckets.len(), h.bounds.len() + 1, "{name}: finite buckets + overflow");
        assert_eq!(h.count(), r.phases().count() as u64, "{name}: one observation per phase");
    }
    // Prometheus exposition declares a type per family.
    let prom = r.prometheus_text();
    assert!(prom.contains("# TYPE mlvc_ssd_pages_read_total counter"));
    assert!(prom.contains("# TYPE mlvc_superstep_pages_read histogram"));

    // Trace JSONL: one record per line, every schema field present.
    let jsonl = r.trace_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), r.supersteps.len() + 1, "seed record + one per superstep");
    for (k, line) in lines.iter().enumerate() {
        let rec = parse(line).unwrap_or_else(|e| panic!("trace line {k}: {e}"));
        for (field, _) in SuperstepStats::default().trace_fields() {
            assert!(num(&rec, field) >= 0.0, "line {k}: field {field}");
        }
        assert_eq!(num(&rec, "superstep"), k as f64, "records are in order");
    }
}

/// The trace's bytes: the field order, the integer and ratio formats and
/// `null` for a ratio over nothing, one line per phase. A four-superstep
/// BFS under tight memory with a 12 KiB tiering budget (the engine sums
/// the two fields) on a cache of no frames in front of the device, so the
/// log-eviction, cache-hit and pinned-tier columns move too, and log-tail
/// retention holds part of the one eviction in host memory: `log_pages_retained` moves, and those pages are not in
/// `pages_written`, nor in the pinned tier's columns (topology alone);
/// the log's tail crosses each boundary in host memory, so the
/// `log_pages_carried` column moves and most phases write nothing, and
/// the seeding phase moves nothing at all: both ratios read `null` there.
#[test]
fn trace_jsonl_bytes_are_pinned() {
    let g = mlvc_gen::cf_mini(7, 11).graph;
    let iv = VertexIntervals::uniform(g.num_vertices(), 2);
    let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
    let sg = StoredGraph::store_with(&ssd, &g, "pin", iv).unwrap();
    ssd.enable_ftl(FtlConfig::default());
    let cfg = EngineConfig::default()
        .with_memory(16 << 10)
        .with_tiering(TieringConfig { cache_bytes: 8 << 10, pin_budget_bytes: 4 << 10 });
    let r = MultiLogEngine::new(ssd, sg, cfg).run(&Bfs::new(0), 4);
    assert_eq!(r.trace_jsonl(), PINNED_TRACE);
}

/// Where the log's pages went (DESIGN.md §18): on a tiered run whose log
/// evicts, every sealed page a flush handed over was either written by
/// the device or held in host memory under the retention budget —
/// `log_pages_flushed` equals the device's page writes (less the edge
/// log's) plus `log_pages_retained`, superstep by superstep, straight off
/// the trace — and the FTL saw exactly the pages the device wrote. (The
/// one other page a flush hands over, a carried page an eviction writes
/// out before its interval is planned, would be written or held too, but
/// is not in `log_pages_flushed`; this run's evictions write none.) At
/// every close the pinned tier holds no more than the pin budget.
#[test]
fn every_flushed_log_page_is_written_or_retained() {
    let g = mini_graph();
    let iv = VertexIntervals::uniform(g.num_vertices(), 5);
    let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
    let sg = StoredGraph::store_with(&ssd, &g, "where", iv).unwrap();
    ssd.enable_ftl(FtlConfig::default());
    let cfg = EngineConfig::default()
        .with_memory(16 << 10)
        .with_tiering(TieringConfig { cache_bytes: 0, pin_budget_bytes: 4 << 10 });
    let page = ssd.page_size() as u64;
    let r = MultiLogEngine::new(ssd, sg, cfg).run(&PageRank::new(0.85, 1e-9), 40);
    assert!(r.interrupted.is_none());
    for s in r.phases() {
        assert!(s.pinned_pages * page <= 4 << 10, "superstep {}: over budget", s.superstep);
        let written = s.io.pages_written - s.edge_log_pages;
        assert_eq!(
            s.log_pages_flushed,
            written + s.log_pages_retained,
            "superstep {}: {written} written, {} retained",
            s.superstep,
            s.log_pages_retained
        );
        assert_eq!(s.ftl_host_writes, s.io.pages_written, "superstep {}", s.superstep);
    }
    let sum = |f: fn(&SuperstepStats) -> u64| -> u64 { r.phases().map(f).sum() };
    assert!(sum(|s| s.log_evictions) > 0, "the log never evicted");
    let (retained, written) = (sum(|s| s.log_pages_retained), sum(|s| s.io.pages_written));
    assert!(retained > 0 && written > 0, "{retained} retained, {written} written");
    assert_eq!(retained, r.multilog.unwrap().pages_retained);
}

/// Drive entry is a tiering boundary with nothing held and no heat
/// (DESIGN.md §18): the ranking pins nothing, so the whole pin budget arms
/// log-tail retention. PageRank seeds no message and its superstep-1
/// flushes outgrow the budget, so superstep 1 holds exactly the budget's
/// pages, and none of them was written.
#[test]
fn drive_entry_arms_retention_with_the_whole_pin_budget() {
    let g = mini_graph();
    let iv = VertexIntervals::uniform(g.num_vertices(), 4);
    let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
    let page = ssd.page_size();
    let sg = StoredGraph::store_with(&ssd, &g, "entry", iv).unwrap();
    let budget = 16 * page;
    let cfg = EngineConfig::default()
        .with_memory(32 << 10)
        .with_tiering(TieringConfig { cache_bytes: 0, pin_budget_bytes: budget });
    let r = MultiLogEngine::new(ssd, sg, cfg).run(&PageRank::new(0.85, 1e-4), 2);
    assert!(r.interrupted.is_none());
    let (seeding, first) = (&r.seeding, &r.supersteps[0]);
    assert_eq!(seeding.log_pages_flushed + seeding.log_pages_retained, 0, "seeding flushed");
    let (budget_pages, flushed) = ((budget / page) as u64, first.log_pages_flushed);
    assert!(flushed > budget_pages, "superstep 1 flushed {flushed}, within the budget");
    assert_eq!(first.log_pages_retained, budget_pages, "superstep 1 held part of the budget");
    assert_eq!(first.io.pages_written - first.edge_log_pages, flushed - budget_pages);
}

const PINNED_TRACE: &str = r#"{"superstep":0,"active_vertices":0,"messages_processed":0,"messages_delivered":0,"messages_sent":1,"edges_scanned":0,"fused_batches":0,"pages_read":0,"pages_written":0,"bytes_read":0,"useful_bytes_read":0,"bytes_written":0,"log_bytes_appended":18,"log_pages_flushed":0,"log_pages_carried":1,"log_pages_retained":0,"log_evictions":0,"edge_log_vertices":0,"edge_log_pages":0,"edge_log_hits":0,"ftl_host_writes":0,"ftl_physical_writes":0,"ftl_erases":0,"ftl_gc_relocations":0,"sim_time_ns":0,"io_wait_ns":0,"max_inflight":0,"mut_edges_merged":0,"mut_intervals_merged":0,"mut_dirty_vertices":0,"cache_hits":0,"cache_misses":0,"cache_evictions":0,"pinned_pages":0,"pinned_hits":0,"read_amplification":null,"write_amplification":null}
{"superstep":1,"active_vertices":1,"messages_processed":1,"messages_delivered":1,"messages_sent":85,"edges_scanned":85,"fused_batches":1,"pages_read":2,"pages_written":0,"bytes_read":512,"useful_bytes_read":78,"bytes_written":0,"log_bytes_appended":882,"log_pages_flushed":0,"log_pages_carried":4,"log_pages_retained":0,"log_evictions":0,"edge_log_vertices":0,"edge_log_pages":0,"edge_log_hits":0,"ftl_host_writes":0,"ftl_physical_writes":0,"ftl_erases":0,"ftl_gc_relocations":0,"sim_time_ns":240210,"io_wait_ns":240000,"max_inflight":2,"mut_edges_merged":0,"mut_intervals_merged":0,"mut_dirty_vertices":0,"cache_hits":0,"cache_misses":2,"cache_evictions":0,"pinned_pages":0,"pinned_hits":0,"read_amplification":6.564103,"write_amplification":null}
{"superstep":2,"active_vertices":85,"messages_processed":85,"messages_delivered":85,"messages_sent":1608,"edges_scanned":1608,"fused_batches":1,"pages_read":10,"pages_written":14,"bytes_read":2560,"useful_bytes_read":1636,"bytes_written":3584,"log_bytes_appended":16624,"log_pages_flushed":56,"log_pages_carried":12,"log_pages_retained":42,"log_evictions":1,"edge_log_vertices":0,"edge_log_pages":0,"edge_log_hits":0,"ftl_host_writes":14,"ftl_physical_writes":14,"ftl_erases":0,"ftl_gc_relocations":0,"sim_time_ns":1190984,"io_wait_ns":440368,"max_inflight":4,"mut_edges_merged":0,"mut_intervals_merged":0,"mut_dirty_vertices":0,"cache_hits":0,"cache_misses":10,"cache_evictions":0,"pinned_pages":6,"pinned_hits":0,"read_amplification":1.564792,"write_amplification":1.000000}
{"superstep":3,"active_vertices":117,"messages_processed":1608,"messages_delivered":117,"messages_sent":113,"edges_scanned":1806,"fused_batches":2,"pages_read":18,"pages_written":0,"bytes_read":4608,"useful_bytes_read":14531,"bytes_written":0,"log_bytes_appended":1178,"log_pages_flushed":0,"log_pages_carried":6,"log_pages_retained":0,"log_evictions":0,"edge_log_vertices":2,"edge_log_pages":0,"edge_log_hits":0,"ftl_host_writes":0,"ftl_physical_writes":0,"ftl_erases":0,"ftl_gc_relocations":0,"sim_time_ns":619876,"io_wait_ns":596674,"max_inflight":4,"mut_edges_merged":0,"mut_intervals_merged":0,"mut_dirty_vertices":0,"cache_hits":6,"cache_misses":18,"cache_evictions":0,"pinned_pages":6,"pinned_hits":6,"read_amplification":0.317115,"write_amplification":null}
{"superstep":4,"active_vertices":48,"messages_processed":113,"messages_delivered":48,"messages_sent":0,"edges_scanned":1255,"fused_batches":1,"pages_read":3,"pages_written":0,"bytes_read":768,"useful_bytes_read":332,"bytes_written":0,"log_bytes_appended":0,"log_pages_flushed":0,"log_pages_carried":0,"log_pages_retained":0,"log_evictions":0,"edge_log_vertices":0,"edge_log_pages":0,"edge_log_hits":0,"ftl_host_writes":0,"ftl_physical_writes":0,"ftl_erases":0,"ftl_gc_relocations":0,"sim_time_ns":242250,"io_wait_ns":237170,"max_inflight":4,"mut_edges_merged":0,"mut_intervals_merged":0,"mut_dirty_vertices":0,"cache_hits":6,"cache_misses":3,"cache_evictions":0,"pinned_pages":9,"pinned_hits":6,"read_amplification":2.313253,"write_amplification":null}
"#;

/// Keeps one vertex busy for [`Countdown::STEPS`] supersteps: it messages
/// itself until then.
struct Countdown;

impl Countdown {
    const STEPS: usize = 4200;
}

impl VertexProgram for Countdown {
    fn name(&self) -> &'static str {
        "countdown"
    }

    fn init_state(&self, _v: VertexId) -> u64 {
        0
    }

    fn init_active(&self, _n: usize) -> InitActive {
        InitActive::Seeds(vec![Update::new(0, 0, 0)])
    }

    fn process(&self, ctx: &mut VertexCtx<'_>) {
        ctx.set_state(ctx.superstep() as u64);
        if ctx.superstep() < Self::STEPS {
            let v = ctx.vertex();
            ctx.send(v, 0);
        }
    }
}

/// A run of thousands of supersteps keeps its whole trace: record `k` is
/// superstep `k`, so the whole-run sums and histograms cover the whole run
/// rather than its tail.
#[test]
fn a_run_of_thousands_of_supersteps_keeps_every_trace_record() {
    let g = mlvc_gen::path(4);
    let iv = VertexIntervals::uniform(g.num_vertices(), 1);
    let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
    let sg = StoredGraph::store_with(&ssd, &g, "long", iv).unwrap();
    ssd.enable_ftl(FtlConfig::default());
    let cfg = EngineConfig::default().with_memory(512 << 10);
    let r = MultiLogEngine::new(ssd, sg, cfg).run(&Countdown, Countdown::STEPS + 10);
    assert!(r.converged && r.interrupted.is_none());
    assert_eq!(r.supersteps.len(), Countdown::STEPS);
    let jsonl = r.trace_jsonl();
    assert_eq!(jsonl.lines().count(), r.supersteps.len() + 1, "seed row + one per superstep");
    for (k, line) in jsonl.lines().enumerate() {
        let rec = parse(line).unwrap_or_else(|e| panic!("trace line {k}: {e}"));
        assert_eq!(num(&rec, "superstep"), k as f64, "row {k}");
    }
    let stepped: u64 = r.supersteps.iter().map(|s| s.io.bytes_read).sum();
    assert!(stepped > 0, "the messages were read back");
    let pages = &r.obs.as_ref().expect("obs snapshot")
        .histograms["mlvc_superstep_pages_read"];
    assert_eq!(pages.count(), r.phases().count() as u64);
}
