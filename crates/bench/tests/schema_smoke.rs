//! Schema smoke test (DESIGN.md §13): the JSON the harness and the
//! observability layer emit must actually parse, with the shape the
//! downstream consumers (CI artifact checks, dashboards) rely on.
//!
//! Validated with `mlvc_obs::json` — the workspace's own parser — so a
//! malformed emitter and a broken parser both fail here.

use std::process::Command;
use std::sync::Arc;

use mlvc_core::{Engine, EngineConfig, MultiLogEngine};
use mlvc_graph::{StoredGraph, VertexIntervals};
use mlvc_obs::json::{parse, Json};
use mlvc_obs::TRACE_FIELDS;
use mlvc_ssd::{Ssd, SsdConfig};

fn num(v: &Json, key: &str) -> f64 {
    v.get(key)
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("field {key} missing or not a number"))
}

fn string<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("field {key} missing or not a string"))
}

/// A library run with the obs layer on emits a metrics snapshot and a
/// trace that round-trip through the JSON parser with the full schema.
#[test]
fn metrics_snapshot_and_trace_jsonl_match_schema() {
    let g = mlvc_gen::cf_mini(9, 7).graph;
    let iv = VertexIntervals::uniform(g.num_vertices(), 4);
    let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
    let sg = StoredGraph::store_with(&ssd, &g, "s", iv).unwrap();
    let cfg = EngineConfig::default().with_memory(512 << 10).with_obs(true);
    let mut e = MultiLogEngine::new(ssd, sg, cfg);
    let r = e.run(&mlvc_apps::PageRank::new(0.85, 1e-4), 8);

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

/// Run the `bench_cache` binary at its default scale in a scratch
/// directory and schema-validate the `BENCH_cache.json` it writes —
/// including the perf-regression floor the tiering CI gate relies on:
/// every workload's best split must cut device reads by at least 25%
/// against the no-pin baseline (DESIGN.md §18). Every counter is a pure
/// function of the workload, so the floor cannot flake.
#[test]
fn bench_cache_json_matches_schema_and_reduction_floor() {
    let dir = std::env::temp_dir().join(format!("mlvc-cache-schema-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_bench_cache"))
        .current_dir(&dir)
        .output()
        .expect("run bench_cache");
    assert!(
        out.status.success(),
        "bench_cache failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(dir.join("BENCH_cache.json")).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let doc = parse(&text).expect("BENCH_cache.json parses");
    assert_eq!(string(&doc, "bench"), "cache_tiering");
    assert!(num(&doc, "scale") >= 1.0);
    assert!(num(&doc, "memory_kb") > 0.0);
    assert!(num(&doc, "budget_kb") > 0.0);
    assert!(num(&doc, "supersteps_cap") >= 1.0);
    assert!(num(&doc, "seed") >= 0.0);
    assert!(num(&doc, "threads") >= 1.0);

    let workloads = doc.get("workloads").and_then(Json::as_arr).expect("workloads array");
    assert_eq!(workloads.len(), 2, "pagerank + wcc");
    for (w, app) in workloads.iter().zip(["pagerank", "wcc"]) {
        assert_eq!(string(w, "app"), app);
        assert!(!string(w, "dataset").is_empty());
        assert!(num(w, "uncached_pages_read") > 0.0);
        assert!(num(w, "baseline_pages_read") > 0.0);
        // The perf-regression gate: a tiering split must beat the no-pin
        // baseline by >= 25% device reads at the same DRAM budget.
        let best = num(w, "best_read_reduction");
        assert!(best >= 0.25, "{app}: best_read_reduction {best} below the 0.25 floor");

        let rows = w.get("rows").and_then(Json::as_arr).expect("rows array");
        assert_eq!(rows.len(), 3, "cache, cache+pin, cache+maxpin");
        let budget_kb = num(&doc, "budget_kb");
        let mut max_row_reduction = 0.0f64;
        for (row, split) in rows.iter().zip(["cache", "cache+pin", "cache+maxpin"]) {
            assert_eq!(string(row, "split"), split);
            // Every split spends exactly the fixed budget.
            assert_eq!(
                num(row, "cache_kb") + num(row, "pin_kb"),
                budget_kb,
                "{app}/{split}: cache + pin must equal the budget"
            );
            assert!(num(row, "pages_read") > 0.0);
            assert!(num(row, "cache_hits") >= 0.0);
            assert!(num(row, "cache_misses") >= 0.0);
            assert!(num(row, "cache_evictions") >= 0.0);
            assert!(num(row, "pinned_pages") >= 0.0);
            let r = num(row, "read_reduction");
            assert!(r < 1.0, "{app}/{split}: cannot remove every read");
            max_row_reduction = max_row_reduction.max(r);
            if split == "cache" {
                assert_eq!(r, 0.0, "baseline row reduces against itself");
                assert_eq!(num(row, "pin_kb"), 0.0, "baseline row has no pins");
                assert_eq!(num(row, "pages_read"), num(w, "baseline_pages_read"));
            }
            if split.ends_with("pin") {
                assert!(num(row, "pinned_pages") > 0.0, "{app}/{split}: pins must land");
            }
        }
        assert_eq!(max_row_reduction, best, "best_read_reduction is the row max");
    }
}

/// Run the `bench_serve` binary at a tiny scale in a scratch directory
/// and schema-validate the `BENCH_serve.json` it writes — the tenant
/// sweep the serving CI artifact relies on.
#[test]
fn bench_serve_json_matches_schema() {
    let dir = std::env::temp_dir().join(format!("mlvc-serve-schema-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_bench_serve"))
        .current_dir(&dir)
        .env("MLVC_SCALE", "8")
        .env("MLVC_MEM_KB", "512")
        .env("MLVC_STEPS", "5")
        .output()
        .expect("run bench_serve");
    assert!(
        out.status.success(),
        "bench_serve failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(dir.join("BENCH_serve.json")).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let doc = parse(&text).expect("BENCH_serve.json parses");
    assert_eq!(string(&doc, "bench"), "serve");
    assert_eq!(num(&doc, "scale"), 8.0);
    assert_eq!(num(&doc, "memory_kb"), 512.0);
    assert!(num(&doc, "threads") >= 1.0);

    let rows = doc.get("rows").and_then(Json::as_arr).expect("rows array");
    assert_eq!(rows.len(), 3, "tenant sweep points");
    for (row, tenants) in rows.iter().zip([1.0, 4.0, 16.0]) {
        assert_eq!(num(row, "tenants"), tenants);
        assert!(num(row, "wall_ms") > 0.0);
        assert!(num(row, "jobs_per_s") > 0.0);
        assert!(num(row, "served_pages_read") > 0.0);
        assert!(num(row, "isolated_pages_read") > 0.0);
        // The shared cache can only remove reads, never add them; and it
        // cannot remove everything (cold pages must be fetched once).
        let reduction = num(row, "read_reduction");
        assert!((0.0..1.0).contains(&reduction), "read_reduction {reduction} out of range");
        assert!(
            num(row, "served_pages_read") <= num(row, "isolated_pages_read"),
            "serving must not read more than isolated runs"
        );
        assert!(num(row, "read_amplification") >= 0.0);
        assert!(num(row, "cache_hits") >= 0.0);
        assert!(num(row, "cross_tenant_hits") >= 0.0);
    }
    // With >1 tenant sharing datasets, cross-tenant hits must appear.
    let last = &rows[2];
    assert!(num(last, "cross_tenant_hits") > 0.0, "16 tenants share pages");
}

/// Run the `bench_mutate` binary at a tiny scale in a scratch directory
/// and schema-validate the `BENCH_mutate.json` it writes — the mutation
/// sweep the ingest CI artifact relies on.
#[test]
fn bench_mutate_json_matches_schema() {
    let dir = std::env::temp_dir().join(format!("mlvc-mutate-schema-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_bench_mutate"))
        .current_dir(&dir)
        .env("MLVC_SCALE", "8")
        .env("MLVC_MEM_KB", "512")
        .env("MLVC_STEPS", "30")
        .output()
        .expect("run bench_mutate");
    assert!(
        out.status.success(),
        "bench_mutate failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(dir.join("BENCH_mutate.json")).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let doc = parse(&text).expect("BENCH_mutate.json parses");
    assert_eq!(string(&doc, "bench"), "mutate");
    assert_eq!(num(&doc, "scale"), 8.0);
    assert_eq!(num(&doc, "memory_kb"), 512.0);
    assert!(num(&doc, "threads") >= 1.0);

    let rows = doc.get("rows").and_then(Json::as_arr).expect("rows array");
    assert_eq!(rows.len(), 4, "3 adds-only sizes + 1 mixed");
    for (row, (edges, kind)) in
        rows.iter().zip([(256.0, "adds"), (1024.0, "adds"), (4096.0, "adds"), (1024.0, "mixed")])
    {
        assert_eq!(num(row, "batch_edges"), edges);
        assert_eq!(string(row, "kind"), kind);
        assert!(num(row, "ingest_edges_per_s") > 0.0);
        assert!(num(row, "accepted") > 0.0);
        assert!(num(row, "accepted") + num(row, "deduped") == edges, "dedup accounting");
        assert!(num(row, "merge_wall_ms") >= 0.0);
        assert!(num(row, "edges_added") > 0.0, "random adds must land some edges");
        assert!(num(row, "intervals_merged") >= 1.0);
        assert!(num(row, "dirty_vertices") >= 1.0);
        assert!(num(row, "cold_supersteps") >= 1.0);
        assert!(num(row, "inc_supersteps") >= 1.0);
        assert!(num(row, "cold_wall_ms") > 0.0);
        assert!(num(row, "inc_wall_ms") > 0.0);
        assert!(num(row, "speedup_vs_cold") > 0.0);
        if kind == "adds" {
            assert_eq!(num(row, "edges_removed"), 0.0, "adds-only row removed edges");
        } else {
            assert!(num(row, "edges_removed") > 0.0, "mixed row must remove real edges");
        }
    }
}
