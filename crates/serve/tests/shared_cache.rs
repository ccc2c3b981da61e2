//! Shared-cache correctness: the serving daemon's page cache must be
//! invisible in results (bit-identical to standalone uncached runs, at
//! any thread count), exact in accounting (per-tenant hits + charged
//! device reads == uncached device reads), and safe under eviction
//! pressure.

use std::sync::Arc;

use mlvc_core::{Engine, EngineConfig, MultiLogEngine};
use mlvc_graph::{Csr, StoredGraph, VertexIntervals, UPDATE_BYTES};
use mlvc_serve::{Daemon, JobRequest, MutationRequest, ServeConfig};
use mlvc_ssd::{FtlConfig, Ssd, SsdConfig};

fn graph() -> Csr {
    mlvc_gen::cf_mini(9, 11).graph
}

fn req(id: &str, app: &str, seed: u64) -> JobRequest {
    JobRequest {
        id: id.to_string(),
        app: app.to_string(),
        dataset: "cf".to_string(),
        memory_bytes: 1 << 20,
        steps: 10,
        seed,
        ..JobRequest::default()
    }
}

/// A standalone, *uncached* run mirroring the daemon's engine
/// construction exactly (same intervals, same config, same tag), on a
/// fresh private device. Returns (states, converged, supersteps,
/// pages_read by the run).
fn standalone(g: &Csr, r: &JobRequest) -> (Vec<u64>, bool, usize, u64) {
    let ssd = Arc::new(Ssd::new(SsdConfig::default()));
    let sort = EngineConfig::default().sort_budget();
    let iv = VertexIntervals::for_graph(g, UPDATE_BYTES, sort);
    let sg = StoredGraph::store_with(&ssd, g, &r.dataset, iv).unwrap();
    ssd.enable_ftl(FtlConfig::default());
    let cfg = EngineConfig::default()
        .with_memory(r.memory_bytes)
        .with_seed(r.seed)
        .with_async(r.async_mode)
        .with_tag(&r.id);
    let before = ssd.stats().snapshot();
    let mut e = MultiLogEngine::new(ssd.clone(), sg, cfg);
    let app = mlvc_apps::by_name(&r.app, g.has_weights(), r.source).unwrap();
    let rep = e.run(app.as_ref(), r.steps);
    let read = ssd.stats().snapshot().since(&before).pages_read;
    (e.states().to_vec(), rep.converged, rep.supersteps.len(), read)
}

#[test]
fn cached_results_are_bit_identical_to_uncached_at_1_and_8_threads() {
    let g = graph();
    let jobs = [req("det-bfs", "bfs", 7), req("det-pr", "pagerank", 7), req("det-wcc", "wcc", 7)];
    for threads in [1usize, 8] {
        mlvc_par::set_thread_override(Some(threads));
        let mut daemon = Daemon::new(ServeConfig { workers: 3, ..ServeConfig::default() });
        daemon.add_dataset("cf", &g).unwrap();
        let results = daemon.run_jobs(jobs.to_vec());
        for (r, j) in results.iter().zip(&jobs) {
            let o = r.outcome.as_ref().unwrap();
            let (states, converged, steps, _) = standalone(&g, j);
            assert_eq!(o.states, states, "{} differs at {threads} threads", j.id);
            assert_eq!(o.report.converged, converged, "{}", j.id);
            assert_eq!(o.report.supersteps.len(), steps, "{}", j.id);
            assert_eq!(o.report.job_id, j.id, "report must carry the job tag");
        }
    }
    mlvc_par::set_thread_override(None);
}

#[test]
fn per_tenant_hits_plus_device_reads_equal_uncached_reads() {
    let g = graph();
    let j = req("acct", "pagerank", 3);
    let mut daemon = Daemon::new(ServeConfig { workers: 1, ..ServeConfig::default() });
    daemon.add_dataset("cf", &g).unwrap();
    let out = daemon.run_job(&j).outcome.unwrap();
    let (_, _, _, uncached_reads) = standalone(&g, &j);
    assert!(out.cache.hits > 0, "an iterative app must re-read pages through the cache");
    assert_eq!(
        out.cache.hits + out.device.pages_read,
        uncached_reads,
        "cache accounting identity violated"
    );
}

#[test]
fn eviction_pressure_preserves_results_and_accounting() {
    let g = graph();
    let j = req("churn", "pagerank", 5);
    // A 4-frame cache is far below the working set: constant 2Q churn.
    let mut daemon =
        Daemon::new(ServeConfig { cache_pages: 4, workers: 1, ..ServeConfig::default() });
    daemon.add_dataset("cf", &g).unwrap();
    let out = daemon.run_job(&j).outcome.unwrap();
    let (states, _, _, uncached_reads) = standalone(&g, &j);
    let snap = daemon.cache().snapshot();
    assert!(snap.evictions > 0, "a 4-frame cache must evict under this workload");
    assert!(snap.resident_pages <= 4);
    assert_eq!(out.states, states, "eviction churn must not corrupt results");
    assert_eq!(out.cache.hits + out.device.pages_read, uncached_reads);
}

#[test]
fn pinned_tier_preserves_identity_and_carves_the_budget() {
    let g = graph();
    let j = req("pinned", "pagerank", 3);
    // 2Q (the default) plus a pinned tier big enough for the dataset's
    // CSR extents, over a deliberately tiny frame pool so unpinned pages
    // churn while pinned ones must not.
    let mut daemon = Daemon::new(ServeConfig {
        cache_pages: 4,
        workers: 1,
        pin_budget_bytes: 4 << 20,
        ..ServeConfig::default()
    });
    daemon.add_dataset("cf", &g).unwrap();
    let snap = daemon.cache().snapshot();
    assert!(snap.pinned_pages > 0, "registration must pin the CSR extents");
    assert_eq!(
        daemon.budget().reserved(),
        snap.pinned_bytes as usize,
        "pinned bytes must be carved out of the admission budget"
    );
    let out = daemon.run_job(&j).outcome.unwrap();
    let (states, _, _, uncached_reads) = standalone(&g, &j);
    assert_eq!(out.states, states, "pinning must not change results");
    assert_eq!(
        out.cache.hits + out.device.pages_read,
        uncached_reads,
        "accounting identity must hold under 2Q + pinning"
    );
    let after = daemon.cache().snapshot();
    assert!(after.pinned_hits > 0, "the job must be served from the pinned tier");
    assert_eq!(
        daemon.budget().reserved(),
        after.pinned_bytes as usize,
        "the carve stays while the pins stay"
    );
}

/// A merge rewrites a pinned dataset's extents, dropping their pinned
/// copies; the daemon pins the rewritten extents again, so the carve still
/// equals the pinned bytes and the next job is served from the pinned tier.
#[test]
fn a_merge_re_pins_the_rewritten_extents() {
    let mut daemon = Daemon::new(ServeConfig {
        cache_pages: 4,
        workers: 1,
        pin_budget_bytes: 4 << 20,
        ..ServeConfig::default()
    });
    daemon.add_dataset("cf", &graph()).unwrap();
    let batch = MutationRequest {
        id: "m".to_string(),
        dataset: "cf".to_string(),
        add: vec![(510, 511), (511, 510)],
        remove: vec![(0, 1), (1, 0)],
    };
    daemon.apply_mutation(&batch).unwrap();
    assert!(daemon.merge_mutations("cf").unwrap().is_some(), "the batch merges");
    let snap = daemon.cache().snapshot();
    assert!(snap.pinned_pages > 0, "the merge must leave the dataset pinned");
    assert_eq!(
        daemon.budget().reserved(),
        snap.pinned_bytes as usize,
        "the carve must follow the rewritten extents"
    );
    daemon.run_job(&req("after-merge", "pagerank", 3)).outcome.unwrap();
    let after = daemon.cache().snapshot();
    assert!(after.pinned_hits > snap.pinned_hits, "the job must hit the re-pinned extents");
}

#[test]
fn concurrent_tenants_on_one_dataset_produce_cross_tenant_hits() {
    let g = graph();
    let jobs: Vec<JobRequest> =
        (0..4).map(|i| req(&format!("twin-{i}"), "wcc", 9)).collect();
    let mut daemon = Daemon::new(ServeConfig { workers: 4, ..ServeConfig::default() });
    daemon.add_dataset("cf", &g).unwrap();
    let results = daemon.run_jobs(jobs.clone());
    let (states, ..) = standalone(&g, &jobs[0]);
    for r in &results {
        assert_eq!(r.outcome.as_ref().unwrap().states, states, "{}", r.id);
    }
    let snap = daemon.cache().snapshot();
    assert!(
        snap.cross_tenant_hits > 0,
        "four identical jobs must serve each other from the shared cache"
    );
}
