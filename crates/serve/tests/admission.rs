//! Admission-control behavior of the serving daemon: typed rejections,
//! queueing (not starting) jobs that don't currently fit the budget, and
//! reservation release on crash so queued jobs still run.

use mlvc_graph::Csr;
use mlvc_serve::{Daemon, JobError, JobRequest, RejectReason, ServeConfig};

fn graph() -> Csr {
    mlvc_gen::cf_mini(8, 3).graph
}

fn req(id: &str, app: &str, memory_bytes: usize) -> JobRequest {
    JobRequest {
        id: id.to_string(),
        app: app.to_string(),
        dataset: "cf".to_string(),
        memory_bytes,
        steps: 8,
        ..JobRequest::default()
    }
}

fn daemon(budget: usize, workers: usize) -> Daemon {
    let mut d = Daemon::new(ServeConfig {
        memory_budget: budget,
        workers,
        ..ServeConfig::default()
    });
    d.add_dataset("cf", &graph()).unwrap();
    d
}

fn reject_code(r: &mlvc_serve::JobResult) -> &str {
    match &r.outcome {
        Err(JobError::Rejected(reason)) => reason.code(),
        other => panic!("{}: expected a rejection, got {other:?}", r.id),
    }
}

#[test]
fn rejections_carry_typed_reasons() {
    let d = daemon(8 << 20, 1);
    let cases = [
        (req("too-big", "bfs", 16 << 20), "budget-exceeds-total"),
        (req("too-small", "bfs", 1 << 10), "budget-too-small"),
        (req("no-data", "bfs", 1 << 20), "unknown-dataset"),
        (req("no-app", "quicksort", 1 << 20), "unknown-app"),
        (req("weightless", "sssp", 1 << 20), "needs-weights"),
        (req("", "bfs", 1 << 20), "malformed-request"),
    ];
    for (mut j, code) in cases {
        if j.id == "no-data" {
            j.dataset = "nope".to_string();
        }
        let r = d.run_job(&j);
        assert_eq!(reject_code(&r), code, "{}", j.id);
    }
    // A rejected job never reserves anything.
    assert_eq!(d.budget().reserved(), 0);
}

#[test]
fn source_out_of_range_is_rejected_not_panicked() {
    let d = daemon(8 << 20, 1);
    let mut j = req("far-source", "bfs", 1 << 20);
    j.source = u32::MAX;
    let r = d.run_job(&j);
    assert_eq!(reject_code(&r), "malformed-request");
}

#[test]
fn job_that_does_not_fit_now_is_parked_not_started() {
    let d = daemon(4 << 20, 2);
    // Fill the whole budget from the test, as if a giant job were running.
    let hold = d.budget().try_reserve(4 << 20).unwrap();
    let j = req("parked", "wcc", 4 << 20);
    mlvc_par::scope(|s| {
        let runner = s.spawn(|| d.run_job(&j));
        // The worker must park in reserve_blocking, not start the engine:
        // observable as a blocked waiter with no new reservation.
        while d.budget().waiting() == 0 {
            std::thread::yield_now();
        }
        assert_eq!(d.budget().reserved(), 4 << 20, "parked job must not reserve");
        drop(hold);
        let res = runner.join().unwrap();
        assert!(res.queued, "the job had to wait for budget");
        assert!(res.outcome.is_ok(), "parked job runs once budget frees");
    });
    assert_eq!(d.budget().reserved(), 0);
}

#[test]
fn crashed_job_releases_its_reservation_so_queued_jobs_run() {
    // Each job needs the entire budget, so the second can only ever run
    // if the first (which crashes mid-run) releases its reservation.
    let d = daemon(2 << 20, 2);
    let mut crasher = req("crasher", "pagerank", 2 << 20);
    crasher.crash_after = Some(5);
    let healthy = req("healthy", "pagerank", 2 << 20);
    let results = d.run_jobs(vec![crasher, healthy]);
    assert_eq!(results.len(), 2);
    match &results[0].outcome {
        Err(JobError::Failed { code, error }) => {
            assert_eq!(*code, "device-crashed");
            assert!(!error.is_empty());
        }
        other => panic!("crasher should fail, got {other:?}"),
    }
    assert!(results[1].outcome.is_ok(), "healthy job must run after the crash");
    assert_eq!(d.budget().reserved(), 0, "no budget stranded by the crash");
    // The crash is confined to the crasher's device view.
    let again = d.run_job(&req("after", "bfs", 1 << 20));
    assert!(again.outcome.is_ok(), "device remains usable for later jobs");
}

#[test]
fn rejected_jobs_never_block_the_batch() {
    let d = daemon(8 << 20, 2);
    let results = d.run_jobs(vec![
        req("ok-1", "bfs", 1 << 20),
        req("nope", "quicksort", 1 << 20),
        req("ok-2", "wcc", 1 << 20),
    ]);
    assert!(results[0].outcome.is_ok());
    assert_eq!(reject_code(&results[1]), "unknown-app");
    assert!(results[2].outcome.is_ok());
    let _ = RejectReason::MalformedRequest(String::new()); // type is public API
}
