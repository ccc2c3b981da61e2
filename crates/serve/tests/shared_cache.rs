//! Shared-cache correctness: the serving daemon's page cache must be
//! invisible in results (bit-identical to standalone uncached runs, at
//! any thread count), exact in accounting (per-tenant hits + charged
//! device reads == uncached device reads), and safe under eviction
//! pressure.

use std::sync::Arc;

use mlvc_core::{Engine, EngineConfig, MultiLogEngine};
use mlvc_graph::{Csr, EdgeListBuilder, StoredGraph, VertexId, VertexIntervals, UPDATE_BYTES};
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
    // Large enough that PageRank's log overflows its buffer and is read
    // back from the device through the cache.
    let g = mlvc_gen::cf_mini(13, 11).graph;
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

/// Each interval's extents (its row-pointer and column-index files, by
/// name) on the daemon's device right now, with their bytes.
fn extents(daemon: &Daemon, dataset: &str) -> Vec<([String; 2], usize)> {
    let ssd = daemon.device();
    let names = |i: usize| [format!("{dataset}.rowptr.{i}"), format!("{dataset}.colidx.{i}")];
    (0..)
        .map(names)
        .take_while(|files| files.iter().all(|f| ssd.lookup(f).is_some()))
        .map(|files| {
            let pages: u64 = files.iter().map(|f| ssd.num_pages(ssd.lookup(f).unwrap()).unwrap()).sum();
            (files, pages as usize * ssd.page_size())
        })
        .collect()
}

/// Bytes of the dataset's interval extents (row-pointer + column-index
/// pages) on the daemon's device right now.
fn extent_bytes(daemon: &Daemon, dataset: &str) -> usize {
    extents(daemon, dataset).iter().map(|e| e.1).sum()
}

/// The dataset's extent files claimed for the pinned tier, by name: each
/// file is read whole, and a claimed file's pages fill pinned.
fn claimed(daemon: &Daemon, dataset: &str) -> Vec<String> {
    let (ssd, cache) = (daemon.device(), daemon.cache());
    let pinned_by = |f: &String| {
        let before = cache.snapshot().pinned_pages;
        ssd.read_all(ssd.lookup(f).unwrap(), |_| 0).unwrap();
        cache.snapshot().pinned_pages > before
    };
    extents(daemon, dataset).into_iter().flat_map(|e| e.0).filter(pinned_by).collect()
}

/// How the daemon partitions [`three_interval_graph`]: every one of its
/// 3 000 vertices takes 600 in-edges, so the default sort budget cuts
/// three intervals.
fn three_intervals() -> VertexIntervals {
    let cut = VertexIntervals::by_inbound_budget(&[600; 3000], UPDATE_BYTES, EngineConfig::default().sort_budget());
    assert_eq!(cut.num_intervals(), 3);
    cut
}

/// A graph the daemon stores as three intervals, the middle one's extents
/// the largest: of each vertex's 600 in-edges 100 come from the first
/// interval, 400 from the second and 100 from the third.
fn three_interval_graph() -> Csr {
    let (n, cut): (VertexId, _) = (3000, three_intervals());
    let mut b = EdgeListBuilder::new(n as usize);
    for v in 0..n {
        for k in 0..600u32 {
            let from = cut.range(match k {
                0..100 => 0,
                100..500 => 1,
                _ => 2,
            });
            b.push(from.start + (v * 7 + k * 13) % (from.end - from.start), v);
        }
    }
    b.build()
}

/// A daemon with the three-interval graph registered under a pin budget,
/// and each interval's extents with their bytes. The extent sizes do not
/// depend on the budget.
fn three_interval_daemon(pin_budget: impl Fn(&[usize]) -> usize) -> (Daemon, Vec<([String; 2], usize)>) {
    let g = three_interval_graph();
    let mut sizing = Daemon::new(ServeConfig { workers: 1, ..ServeConfig::default() });
    sizing.add_dataset("cf", &g).unwrap();
    let ivs = extents(&sizing, "cf");
    let bytes: Vec<usize> = ivs.iter().map(|e| e.1).collect();
    let cfg = ServeConfig { cache_pages: 4, workers: 1, pin_budget_bytes: pin_budget(&bytes), ..ServeConfig::default() };
    let mut daemon = Daemon::new(cfg);
    daemon.add_dataset("cf", &g).unwrap();
    (daemon, ivs)
}

/// `Daemon::pin` walks the intervals front to back and skips one that
/// does not fit what is left: a budget of intervals 0 and 2 claims their
/// extents and not the larger interval 1's between them, and carves
/// exactly their bytes.
#[test]
fn registration_skips_an_interval_that_does_not_fit() {
    let (daemon, ivs) = three_interval_daemon(|b| b[0] + b[2]);
    assert_eq!(ivs.len(), 3);
    assert!(ivs[1].1 > ivs[2].1, "interval 1 must be the larger: {:?}", ivs.iter().map(|e| e.1));
    let want: Vec<String> = [&ivs[0], &ivs[2]].iter().flat_map(|e| e.0.clone()).collect();
    assert_eq!(daemon.budget().reserved(), ivs[0].1 + ivs[2].1);
    assert_eq!(claimed(&daemon, "cf"), want);
}

/// A merge that grows the last claimed interval's extents past what the
/// budget has left for them: the re-claim after the merge is partial,
/// intervals 0 and 1 claimed again, interval 2 not, and the carve is
/// theirs.
#[test]
fn a_merge_that_outgrows_the_budget_re_claims_partially() {
    let (daemon, ivs) = three_interval_daemon(|b| b.iter().sum());
    let every: Vec<String> = ivs.iter().flat_map(|e| e.0.clone()).collect();
    assert_eq!(claimed(&daemon, "cf"), every);
    let batch = MutationRequest {
        id: "grow".to_string(),
        dataset: "cf".to_string(),
        add: three_intervals().range(2).flat_map(|s| (0..40).map(move |d| (s, d))).collect(),
        remove: Vec::new(),
    };
    daemon.apply_mutation(&batch).unwrap();
    assert!(daemon.merge_mutations("cf").unwrap().is_some(), "the batch merges");
    let grown = extents(&daemon, "cf");
    assert!(grown[2].1 > ivs[2].1, "interval 2 grew from {} to {} bytes", ivs[2].1, grown[2].1);
    assert_eq!(daemon.budget().reserved(), ivs[0].1 + ivs[1].1);
    let want: Vec<String> = ivs[..2].iter().flat_map(|e| e.0.clone()).collect();
    assert_eq!(claimed(&daemon, "cf"), want);
}

/// A daemon with 2Q over a deliberately tiny frame pool, so unpinned pages
/// churn while pinned ones must not, and a pin budget big enough for the
/// dataset's CSR extents.
fn pinning_daemon() -> Daemon {
    let mut daemon = Daemon::new(ServeConfig {
        cache_pages: 4,
        workers: 1,
        pin_budget_bytes: 4 << 20,
        ..ServeConfig::default()
    });
    daemon.add_dataset("cf", &graph()).unwrap();
    daemon
}

/// Registration claims the dataset's CSR extents for the pinned tier and
/// carves their bytes from the admission budget, reading nothing. One
/// PageRank job, whose all-active first superstep reads every extent page,
/// fills every claimed page pinned, and the accounting identity holds.
#[test]
fn pinned_tier_preserves_identity_and_carves_the_budget() {
    let g = graph();
    let j = req("pinned", "pagerank", 3);
    let daemon = pinning_daemon();
    assert_eq!(daemon.device().stats().snapshot().pages_read, 0, "registration read a page");
    let snap = daemon.cache().snapshot();
    assert_eq!((snap.pinned_pages, snap.pinned_bytes), (0, 0), "a claim pinned a page");
    let extents = extent_bytes(&daemon, "cf");
    assert!(extents > 0);
    assert_eq!(daemon.budget().reserved(), extents, "the carve is the claimed extents' bytes");
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
        "the job's reads filled every claimed page"
    );
}

/// `cache_pages: 0` is a pin-only shared cache: registration reads
/// nothing, the first job's reads fill the claims and the next job is
/// served from the pinned tier; with no frame nothing is evicted, and the
/// accounting identity holds for each job.
#[test]
fn a_cache_of_no_frames_is_the_pinned_tier_alone() {
    let g = graph();
    let mut daemon = Daemon::new(ServeConfig {
        cache_pages: 0,
        workers: 1,
        pin_budget_bytes: 4 << 20,
        ..ServeConfig::default()
    });
    daemon.add_dataset("cf", &g).unwrap();
    assert_eq!(daemon.device().stats().snapshot().pages_read, 0, "registration read a page");
    let mut pinned_hits = Vec::new();
    for id in ["fill", "hit"] {
        let j = req(id, "pagerank", 3);
        let out = daemon.run_job(&j).outcome.unwrap();
        let (states, _, _, uncached_reads) = standalone(&g, &j);
        assert_eq!(out.states, states, "{id}: a pin-only cache changed results");
        assert_eq!(out.cache.hits + out.device.pages_read, uncached_reads, "{id}: identity");
        let snap = daemon.cache().snapshot();
        assert_eq!((snap.capacity_pages, snap.resident_pages, snap.evictions), (0, 0, 0));
        assert_eq!(daemon.budget().reserved(), snap.pinned_bytes as usize, "{id}: claims filled");
        pinned_hits.push(snap.pinned_hits);
    }
    assert!(pinned_hits[1] > pinned_hits[0], "the next job must hit the filled claims");
}

/// A merge rewrites a pinned dataset's extents, dropping their pinned
/// copies and claims; the daemon claims the rewritten extents again, so
/// the carve equals their bytes, and the next job fills them and is served
/// from the pinned tier.
#[test]
fn a_merge_re_pins_the_rewritten_extents() {
    let daemon = pinning_daemon();
    daemon.run_job(&req("before-merge", "pagerank", 3)).outcome.unwrap();
    let batch = MutationRequest {
        id: "m".to_string(),
        dataset: "cf".to_string(),
        add: vec![(510, 511), (511, 510)],
        remove: vec![(0, 1), (1, 0)],
    };
    daemon.apply_mutation(&batch).unwrap();
    assert!(daemon.merge_mutations("cf").unwrap().is_some(), "the batch merges");
    assert_eq!(
        daemon.budget().reserved(),
        extent_bytes(&daemon, "cf"),
        "the carve must follow the rewritten extents"
    );
    let snap = daemon.cache().snapshot();
    daemon.run_job(&req("after-merge", "pagerank", 3)).outcome.unwrap();
    let after = daemon.cache().snapshot();
    assert!(after.pinned_hits > snap.pinned_hits, "the job must hit the re-pinned extents");
    assert_eq!(daemon.budget().reserved(), after.pinned_bytes as usize);
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
