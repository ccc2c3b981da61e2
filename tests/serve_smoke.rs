//! Serving-daemon smoke test (wired into scripts/check.sh and CI): many
//! concurrent jobs across two datasets on ONE shared device, where the
//! shared page cache measurably reduces total device page reads compared
//! to running each job on its own isolated device, while every job's
//! results stay bit-identical to a standalone `mlvc run`.

use std::sync::Arc;

use multilogvc::core::{Engine, EngineConfig, MultiLogEngine};
use multilogvc::graph::{Csr, StoredGraph, VertexIntervals, UPDATE_BYTES};
use multilogvc::serve::{Daemon, JobRequest, ServeConfig};
use multilogvc::ssd::{FtlConfig, Ssd, SsdConfig};

fn datasets() -> Vec<(&'static str, Csr)> {
    vec![("cf", mlvc_gen::cf_mini(9, 11).graph), ("yws", mlvc_gen::yws_mini(9, 7).graph)]
}

/// The smoke-test job mix: ≥8 jobs, ≥2 datasets, several apps, mixed
/// budgets — the workload ISSUE pins for the serving tentpole.
fn job_mix() -> Vec<JobRequest> {
    let apps = ["bfs", "pagerank", "wcc", "cdlp"];
    (0..8)
        .map(|i| JobRequest {
            id: format!("smoke-{i}"),
            app: apps[i % apps.len()].to_string(),
            dataset: if i % 2 == 0 { "cf" } else { "yws" }.to_string(),
            memory_bytes: (1 + i % 2) << 20,
            steps: 10,
            seed: 17,
            ..JobRequest::default()
        })
        .collect()
}

/// Run one job standalone on its own *uncached* device, mirroring the
/// daemon's engine construction. Returns (states, pages_read).
fn isolated(g: &Csr, r: &JobRequest) -> (Vec<u64>, u64) {
    let ssd = Arc::new(Ssd::new(SsdConfig::default()));
    let iv = VertexIntervals::for_graph(g, UPDATE_BYTES, EngineConfig::default().sort_budget());
    let sg = StoredGraph::store_with(&ssd, g, &r.dataset, iv).unwrap();
    ssd.enable_ftl(FtlConfig::default());
    let cfg = EngineConfig::default().with_memory(r.memory_bytes).with_seed(r.seed).with_tag(&r.id);
    let app = multilogvc::apps::by_name(&r.app, g.has_weights(), r.source).unwrap();
    let before = ssd.stats().snapshot();
    let mut e = MultiLogEngine::new(Arc::clone(&ssd), sg, cfg);
    e.run(app.as_ref(), r.steps);
    let read = ssd.stats().snapshot().since(&before).pages_read;
    (e.states().to_vec(), read)
}

#[test]
fn eight_concurrent_jobs_share_the_device_and_the_cache_pays() {
    let data = datasets();
    let jobs = job_mix();

    let mut daemon = Daemon::new(ServeConfig {
        memory_budget: 64 << 20,
        cache_pages: 1024,
        workers: 8,
        ..ServeConfig::default()
    });
    for (name, g) in &data {
        daemon.add_dataset(name, g).unwrap();
    }
    let served_before = daemon.device().stats().snapshot();
    let results = daemon.run_jobs(jobs.clone());
    let served_reads =
        daemon.device().stats().snapshot().since(&served_before).pages_read;

    // 1. Every job completes with results bit-identical to standalone.
    assert_eq!(results.len(), 8);
    let mut isolated_reads_total = 0u64;
    for (res, job) in results.iter().zip(&jobs) {
        let out = res.outcome.as_ref().unwrap_or_else(|e| panic!("{}: {e}", res.id));
        let g = &data.iter().find(|(n, _)| *n == job.dataset).unwrap().1;
        let (states, reads) = isolated(g, job);
        assert_eq!(out.states, states, "{} diverged from standalone run", job.id);
        assert_eq!(out.report.job_id, job.id);
        isolated_reads_total += reads;
        // Per-tenant accounting identity under concurrency.
        assert_eq!(
            out.cache.hits + out.device.pages_read,
            reads,
            "{}: hits + charged reads != uncached reads",
            job.id
        );
    }

    // 2. Cross-tenant sharing actually happened.
    let cache = daemon.cache().snapshot();
    assert!(cache.cross_tenant_hits > 0, "jobs must serve each other's pages");
    assert!(cache.total_hits() > 0);

    // 3. The shared cache measurably reduces device page reads vs running
    // every job isolated. The mix re-reads two graphs eight times; even a
    // modest cache should cut total device reads by well over 10%. Pinned
    // conservatively so scheduling nondeterminism cannot flake this.
    assert!(
        (served_reads as f64) < 0.9 * isolated_reads_total as f64,
        "shared cache saved too little: served {served_reads} vs isolated {isolated_reads_total}"
    );

    // 4. The daemon-wide rollup attributes every job.
    let rollup = daemon.prometheus_rollup();
    for job in &jobs {
        assert!(
            rollup.contains(&format!("job=\"{}\"", job.id)),
            "{} missing from the Prometheus rollup",
            job.id
        );
    }
}
