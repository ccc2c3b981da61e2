//! Exact I/O accounting (DESIGN.md §13): the observability layer's
//! end-of-run counters must equal the device's own statistics bit-for-bit,
//! the per-superstep trace must sum to the same totals, the whole trace
//! must be identical for every worker-thread count, and the JSON and
//! Prometheus text both are exported as must parse with the schema their
//! consumers (the CI metrics artifact, dashboards) rely on.

use std::sync::Arc;

use multilogvc::apps::{Bfs, PageRank, Wcc};
use multilogvc::core::{Engine, EngineConfig, MultiLogEngine, RunReport, VertexProgram};
use multilogvc::graph::{Csr, StoredGraph, VertexIntervals};
use multilogvc::obs::json::{parse, Json};
use multilogvc::obs::{TraceRecord, TRACE_FIELDS};
use multilogvc::ssd::{Ssd, SsdConfig, SsdStatsSnapshot};

fn mini_graph() -> Csr {
    mlvc_gen::cf_mini(9, 11).graph
}

/// Run `prog` with obs on; return the report and the device's stats delta
/// over exactly the engine run (stats are reset after graph storing).
fn run_with_obs(prog: &dyn VertexProgram, steps: usize) -> (RunReport, SsdStatsSnapshot) {
    let g = mini_graph();
    let iv = VertexIntervals::uniform(g.num_vertices(), 5);
    let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
    let sg = StoredGraph::store_with(&ssd, &g, "io", iv).unwrap();
    ssd.stats().reset();
    let cfg = EngineConfig::default().with_memory(512 << 10).with_obs(true);
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
        let sum = |f: fn(&TraceRecord) -> u64| -> u64 { r.trace.iter().map(f).sum() };
        assert_eq!(sum(|t| t.pages_read), dev.pages_read, "{name}: pages_read");
        assert_eq!(sum(|t| t.pages_written), dev.pages_written, "{name}: pages_written");
        assert_eq!(sum(|t| t.bytes_read), dev.bytes_read, "{name}: bytes_read");
        assert_eq!(sum(|t| t.bytes_written), dev.bytes_written, "{name}: bytes_written");
        assert_eq!(
            sum(|t| t.useful_bytes_read),
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
    let mut baseline: Option<(Vec<u64>, Vec<TraceRecord>)> = None;
    for threads in [1usize, 2, 8] {
        mlvc_par::set_thread_override(Some(threads));
        let g = mini_graph();
        let iv = VertexIntervals::uniform(g.num_vertices(), 5);
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let sg = StoredGraph::store_with(&ssd, &g, "t", iv).unwrap();
        let cfg = EngineConfig::default().with_memory(512 << 10).with_obs(true);
        let mut e = MultiLogEngine::new(ssd, sg, cfg);
        let r = e.run(&PageRank::new(0.85, 1e-9), 40);
        let got = (e.states().to_vec(), r.trace.clone());
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

/// Reading ahead moves time, never a page: an asynchronous run with four
/// fused batches in flight on deep queues reads and writes exactly the
/// pages, bytes and batches of the same run fetching one batch at a time —
/// superstep by superstep — and is no slower on the simulated clock.
#[test]
fn async_run_reads_and_writes_exactly_the_pages_of_a_k1_run() {
    let run = |queue_depth: usize, inflight: usize| {
        let g = mini_graph();
        let iv = VertexIntervals::uniform(g.num_vertices(), 16);
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let sg = StoredGraph::store_with(&ssd, &g, "io", iv).unwrap();
        ssd.stats().reset();
        // Tight enough that a superstep splits into several fused batches
        // and the write side flushes pages the same superstep drains.
        let cfg = EngineConfig::default()
            .with_memory(16 << 10)
            .with_async(true)
            .with_queue_depth(queue_depth)
            .with_inflight_batches(inflight)
            .with_obs(true);
        let mut e = MultiLogEngine::new(Arc::clone(&ssd), sg, cfg);
        let r = e.run(&Wcc, 80);
        assert!(r.converged && r.interrupted.is_none());
        (e.states().to_vec(), r, ssd.stats().snapshot())
    };
    let (one_states, one, one_dev) = run(1, 1);
    let (states, ahead, dev) = run(16, 4);
    assert_eq!(states, one_states);
    assert!(one.trace.iter().any(|t| t.fused_batches > 1), "one batch per superstep");
    assert!(one.supersteps.iter().all(|s| s.max_inflight <= 1));
    assert!(ahead.supersteps.iter().any(|s| s.max_inflight > 1), "nothing was read ahead");
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
    assert_eq!(ahead.supersteps.len(), one.supersteps.len());
    for (a, b) in ahead.supersteps.iter().zip(&one.supersteps) {
        assert_eq!(counts(&a.io), counts(&b.io), "superstep {}", a.superstep);
    }
    assert!(ahead.total_sim_time_ns() <= one.total_sim_time_ns());
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

    // Snapshot: counters/gauges/histograms objects with the wired families.
    let snap = r.obs.as_ref().expect("obs snapshot present");
    let doc = parse(&snap.to_json()).expect("snapshot JSON parses");
    let counters = doc.get("counters").expect("counters object");
    for key in [
        "mlvc_ssd_pages_read_total",
        "mlvc_ssd_bytes_written_total",
        "mlvc_log_bytes_appended_total",
        "mlvc_ftl_physical_writes_total",
        "mlvc_engine_supersteps_total",
    ] {
        assert!(num(counters, key) > 0.0, "counter {key} populated");
    }
    let gauges = doc.get("gauges").expect("gauges object");
    assert!(num(gauges, "mlvc_read_amplification_milli") >= 1000.0);
    let hists = doc.get("histograms").and_then(Json::as_obj).expect("histograms object");
    assert!(!hists.is_empty(), "at least one histogram");
    for (name, h) in hists {
        let bounds = h.get("bounds").and_then(Json::as_arr).unwrap();
        let buckets = h.get("buckets").and_then(Json::as_arr).unwrap();
        assert_eq!(buckets.len(), bounds.len() + 1, "{name}: finite buckets + overflow");
        assert!(num(h, "count") > 0.0, "{name}: observed");
    }
    // Prometheus exposition declares a type per family.
    let prom = snap.to_prometheus();
    assert!(prom.contains("# TYPE mlvc_ssd_pages_read_total counter"));
    assert!(prom.contains("# TYPE mlvc_superstep_pages_read histogram"));

    // Trace JSONL: one record per line, every schema field present.
    let jsonl = r.trace_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), r.supersteps.len() + 1, "seed record + one per superstep");
    for (k, line) in lines.iter().enumerate() {
        let rec = parse(line).unwrap_or_else(|e| panic!("trace line {k}: {e}"));
        for field in TRACE_FIELDS {
            assert!(num(&rec, field) >= 0.0, "line {k}: field {field}");
        }
        assert_eq!(num(&rec, "superstep"), k as f64, "records are in order");
    }
}
