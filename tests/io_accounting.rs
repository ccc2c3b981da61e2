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
    Engine, EngineConfig, InitActive, MultiLogEngine, RunReport, SuperstepStats, TieringConfig,
    Update, VertexCtx, VertexProgram,
};
use multilogvc::graph::{Csr, StoredGraph, VertexId, VertexIntervals};
use multilogvc::obs::json::{parse, Json};
use multilogvc::ssd::{FtlConfig, Ssd, SsdConfig, SsdStatsSnapshot};

fn mini_graph() -> Csr {
    mlvc_gen::cf_mini(9, 11).graph
}

/// A run's trace: one row per phase, seeding first.
type Trace = Vec<[(&'static str, u64); 33]>;

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

/// The load stage reading one interval ahead moves no page: a synchronous
/// PageRank and a random walk over four intervals in one fused batch read
/// the same pages, useful bytes and batches, superstep by superstep, as
/// when every adjacency read was a synchronous `read_batch` (the literals),
/// and every read of a superstep now rides its I/O queue — the read time
/// is all queue wait — with the next interval's tickets in flight beside
/// the current one's.
#[test]
fn reading_adjacency_one_interval_ahead_moves_no_page() {
    let run = |prog: &dyn VertexProgram, steps: usize| -> ReadCounts {
        let g = mini_graph();
        let iv = VertexIntervals::uniform(g.num_vertices(), 4);
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let sg = StoredGraph::store_with(&ssd, &g, "ahead", iv).unwrap();
        let cfg = EngineConfig::default().with_memory(512 << 10);
        let r = MultiLogEngine::new(ssd, sg, cfg).run(prog, steps);
        assert!(r.interrupted.is_none());
        r.supersteps
            .iter()
            .map(|s| {
                let what = format!("{} superstep {}", prog.name(), s.superstep);
                assert_eq!(s.batches_inline + s.batches_handed_off, 1, "{what}: one fused batch");
                assert_eq!(s.io.read_time_ns, s.io_wait_ns, "{what}: a read off the queue");
                // Row pointers and column indices of two intervals at once.
                assert!(s.max_inflight >= 4, "{what}: {} tickets in flight", s.max_inflight);
                (s.io.pages_read, s.io.useful_bytes_read, s.io.read_batches)
            })
            .collect()
    };
    let dense = (445, 109_381, 9);
    let pagerank = run(&PageRank::new(0.85, 1e-9), 6);
    assert_eq!(pagerank, [(48, 11_681, 8), dense, dense, dense, dense, dense]);
    assert_eq!(
        run(&RandomWalk::new(7, 2, 6), 20),
        [
            (49, 3_292, 9),
            (53, 5_997, 9),
            (56, 7_013, 11),
            (56, 7_193, 12),
            (56, 7_130, 12),
            (56, 6_938, 11),
            (55, 6_755, 11),
        ]
    );
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
/// BFS under tight memory with a small page cache and a pin budget in front
/// of the device, so the log-eviction, cache and pinned-tier columns move
/// too; the seeding phase reads nothing and the last superstep writes
/// nothing, so each ratio is `null` once.
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

const PINNED_TRACE: &str = r#"{"superstep":0,"active_vertices":0,"messages_processed":0,"messages_delivered":0,"messages_sent":1,"edges_scanned":0,"fused_batches":0,"pages_read":0,"pages_written":1,"bytes_read":0,"useful_bytes_read":0,"bytes_written":256,"log_bytes_appended":18,"log_pages_flushed":1,"log_evictions":0,"edge_log_vertices":0,"edge_log_pages":0,"edge_log_hits":0,"ftl_host_writes":1,"ftl_physical_writes":1,"ftl_erases":0,"ftl_gc_relocations":0,"sim_time_ns":240000,"io_wait_ns":0,"max_inflight":0,"mut_edges_merged":0,"mut_intervals_merged":0,"mut_dirty_vertices":0,"cache_hits":0,"cache_misses":0,"cache_evictions":0,"pinned_pages":1,"pinned_hits":0,"read_amplification":null,"write_amplification":1.000000}
{"superstep":1,"active_vertices":1,"messages_processed":1,"messages_delivered":1,"messages_sent":85,"edges_scanned":85,"fused_batches":1,"pages_read":6,"pages_written":4,"bytes_read":1536,"useful_bytes_read":1120,"bytes_written":1024,"log_bytes_appended":882,"log_pages_flushed":4,"log_evictions":0,"edge_log_vertices":0,"edge_log_pages":0,"edge_log_hits":0,"ftl_host_writes":4,"ftl_physical_writes":4,"ftl_erases":0,"ftl_gc_relocations":0,"sim_time_ns":600210,"io_wait_ns":240000,"max_inflight":2,"mut_edges_merged":0,"mut_intervals_merged":0,"mut_dirty_vertices":0,"cache_hits":3,"cache_misses":6,"cache_evictions":0,"pinned_pages":10,"pinned_hits":1,"read_amplification":1.371429,"write_amplification":1.000000}
{"superstep":2,"active_vertices":85,"messages_processed":85,"messages_delivered":85,"messages_sent":1608,"edges_scanned":1608,"fused_batches":1,"pages_read":4,"pages_written":68,"bytes_read":1024,"useful_bytes_read":1424,"bytes_written":17408,"log_bytes_appended":16624,"log_pages_flushed":68,"log_evictions":1,"edge_log_vertices":0,"edge_log_pages":0,"edge_log_hits":0,"ftl_host_writes":68,"ftl_physical_writes":68,"ftl_erases":0,"ftl_gc_relocations":0,"sim_time_ns":3554984,"io_wait_ns":236368,"max_inflight":4,"mut_edges_merged":0,"mut_intervals_merged":0,"mut_dirty_vertices":0,"cache_hits":14,"cache_misses":4,"cache_evictions":0,"pinned_pages":15,"pinned_hits":10,"read_amplification":0.719101,"write_amplification":1.000000}
{"superstep":3,"active_vertices":117,"messages_processed":1608,"messages_delivered":117,"messages_sent":113,"edges_scanned":1806,"fused_batches":2,"pages_read":63,"pages_written":7,"bytes_read":16128,"useful_bytes_read":16624,"bytes_written":1792,"log_bytes_appended":1178,"log_pages_flushed":6,"log_evictions":0,"edge_log_vertices":2,"edge_log_pages":1,"edge_log_hits":0,"ftl_host_writes":7,"ftl_physical_writes":7,"ftl_erases":0,"ftl_gc_relocations":0,"sim_time_ns":2238906,"io_wait_ns":1495704,"max_inflight":3,"mut_edges_merged":0,"mut_intervals_merged":0,"mut_dirty_vertices":0,"cache_hits":15,"cache_misses":63,"cache_evictions":9,"pinned_pages":11,"pinned_hits":15,"read_amplification":0.970164,"write_amplification":1.000000}
{"superstep":4,"active_vertices":48,"messages_processed":113,"messages_delivered":48,"messages_sent":0,"edges_scanned":1255,"fused_batches":1,"pages_read":5,"pages_written":0,"bytes_read":1280,"useful_bytes_read":1178,"bytes_written":0,"log_bytes_appended":0,"log_pages_flushed":0,"log_evictions":0,"edge_log_vertices":0,"edge_log_pages":0,"edge_log_hits":0,"ftl_host_writes":0,"ftl_physical_writes":0,"ftl_erases":0,"ftl_gc_relocations":0,"sim_time_ns":245080,"io_wait_ns":240000,"max_inflight":4,"mut_edges_merged":0,"mut_intervals_merged":0,"mut_dirty_vertices":0,"cache_hits":10,"cache_misses":5,"cache_evictions":0,"pinned_pages":10,"pinned_hits":10,"read_amplification":1.086587,"write_amplification":null}
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
