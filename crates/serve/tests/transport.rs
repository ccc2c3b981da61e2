//! Line-protocol transport: drive `Daemon::serve` end to end through an
//! in-memory reader/writer pair and check the reply event stream.

use std::io::{BufReader, Cursor, Read};

use mlvc_obs::json::Json;
use mlvc_serve::{Daemon, JobRequest, ServeConfig, MAX_LINE_BYTES};

fn events(output: &[u8]) -> Vec<(String, String)> {
    String::from_utf8_lossy(output)
        .lines()
        .map(|l| {
            let v = mlvc_obs::json::parse(l).unwrap_or_else(|e| panic!("bad reply {l}: {e}"));
            (
                v.get("event").and_then(|e| e.as_str()).unwrap_or("").to_string(),
                v.get("id").and_then(|e| e.as_str()).unwrap_or("").to_string(),
            )
        })
        .collect()
}

#[test]
fn serve_runs_jobs_and_replies_per_line() {
    let mut daemon = Daemon::new(ServeConfig { workers: 2, ..ServeConfig::default() });
    daemon.add_dataset("cf", &mlvc_gen::cf_mini(8, 5).graph).unwrap();
    let input = "\
{\"op\":\"run\",\"id\":\"a\",\"app\":\"bfs\",\"dataset\":\"cf\",\"memory_kb\":1024,\"steps\":8}\n\
{\"op\":\"run\",\"id\":\"b\",\"app\":\"wcc\",\"dataset\":\"cf\",\"memory_kb\":1024,\"steps\":8}\n\
{\"op\":\"run\",\"id\":\"c\",\"app\":\"nope\",\"dataset\":\"cf\"}\n\
this is not json\n\
{\"op\":\"stats\"}\n\
{\"op\":\"shutdown\"}\n";
    let mut out: Vec<u8> = Vec::new();
    daemon.serve(Cursor::new(input), &mut out).unwrap();
    let ev = events(&out);
    let of = |id: &str| -> Vec<&str> {
        ev.iter().filter(|(_, i)| i == id).map(|(e, _)| e.as_str()).collect()
    };
    assert_eq!(of("a").first().copied(), Some("accepted"));
    assert_eq!(of("a").last().copied(), Some("done"));
    assert_eq!(of("b").first().copied(), Some("accepted"));
    assert_eq!(of("b").last().copied(), Some("done"));
    assert_eq!(of("c"), vec!["rejected"], "bad app is rejected at admission");
    assert!(
        ev.iter().any(|(e, id)| e == "rejected" && id.is_empty()),
        "non-JSON lines get a typed malformed-request rejection"
    );
    assert!(ev.iter().any(|(e, _)| e == "stats"));
}

#[test]
fn eof_drains_accepted_jobs_before_returning() {
    let mut daemon = Daemon::new(ServeConfig { workers: 1, ..ServeConfig::default() });
    daemon.add_dataset("cf", &mlvc_gen::cf_mini(8, 5).graph).unwrap();
    let input =
        "{\"op\":\"run\",\"id\":\"only\",\"app\":\"pagerank\",\"dataset\":\"cf\",\"memory_kb\":1024,\"steps\":5}\n";
    let mut out: Vec<u8> = Vec::new();
    daemon.serve(Cursor::new(input), &mut out).unwrap();
    let ev = events(&out);
    assert_eq!(
        ev.iter().filter(|(e, id)| e == "done" && id == "only").count(),
        1,
        "EOF must still drain the accepted job"
    );
    let rollup = daemon.prometheus_rollup();
    assert!(rollup.contains("mlvc_serve_device_pages_read_total"));
    assert!(rollup.contains("job=\"only\""), "per-job series must carry the job label");
}

/// `run_jobs` and `serve` drive one lifecycle: the same requests on two
/// fresh one-worker daemons pass through the same states, and every
/// `done` line carries the numbers of the matching `JobOutcome`.
#[test]
fn run_jobs_and_serve_agree_job_for_job() {
    let g = mlvc_gen::cf_mini(8, 5).graph;
    let daemon = || {
        let mut d = Daemon::new(ServeConfig { workers: 1, ..ServeConfig::default() });
        d.add_dataset("cf", &g).unwrap();
        d
    };
    let reqs: Vec<JobRequest> = [("bfs-1", "bfs"), ("wcc-1", "wcc"), ("pr-1", "pagerank")]
        .iter()
        .map(|&(id, app)| JobRequest {
            id: id.to_string(),
            app: app.to_string(),
            dataset: "cf".to_string(),
            memory_bytes: 1 << 20,
            steps: 8,
            ..JobRequest::default()
        })
        .collect();
    let batch = daemon().run_jobs(reqs.clone());

    let input: String = reqs
        .iter()
        .map(|r| {
            format!(
                "{{\"op\":\"run\",\"id\":\"{}\",\"app\":\"{}\",\"dataset\":\"{}\",\
                 \"memory_kb\":{},\"steps\":{},\"seed\":{}}}\n",
                r.id,
                r.app,
                r.dataset,
                r.memory_bytes >> 10,
                r.steps,
                r.seed
            )
        })
        .collect();
    let mut out: Vec<u8> = Vec::new();
    daemon().serve(Cursor::new(input), &mut out).unwrap();
    let replies: Vec<Json> = String::from_utf8_lossy(&out)
        .lines()
        .map(|l| mlvc_obs::json::parse(l).unwrap_or_else(|e| panic!("bad reply {l}: {e}")))
        .collect();
    let field = |v: &Json, k: &str| v.get(k).cloned().unwrap_or(Json::Null);

    for r in &batch {
        let id = Some(r.id.as_str());
        let mine: Vec<&Json> =
            replies.iter().filter(|v| v.get("id").and_then(Json::as_str) == id).collect();
        let events: Vec<&str> =
            mine.iter().filter_map(|v| v.get("event").and_then(Json::as_str)).collect();
        assert!(!r.queued, "{}", r.id);
        assert_eq!(events, ["accepted", "done"], "{}", r.id);
        let o = r.outcome.as_ref().expect("every job runs");
        let done = mine[1];
        let num = |x: u64| Json::Num(x as f64);
        assert_eq!(field(done, "supersteps"), num(o.report.supersteps.len() as u64), "{}", r.id);
        assert_eq!(field(done, "converged"), Json::Bool(o.report.converged), "{}", r.id);
        assert_eq!(field(done, "pages_read"), num(o.device.pages_read), "{}", r.id);
        assert_eq!(field(done, "cache_hits"), num(o.cache.hits), "{}", r.id);
        assert_eq!(field(done, "sim_time_ns"), num(o.report.total_sim_time_ns()), "{}", r.id);
    }
}

const RUN_LINE: &str =
    "{\"op\":\"run\",\"id\":\"r\",\"app\":\"bfs\",\"dataset\":\"cf\",\"memory_kb\":1024,\"steps\":4}\n";

fn one_worker() -> Daemon {
    let mut daemon = Daemon::new(ServeConfig { workers: 1, ..ServeConfig::default() });
    daemon.add_dataset("cf", &mlvc_gen::cf_mini(8, 5).graph).unwrap();
    daemon
}

/// A line that is not UTF-8 is a malformed request like any other: it
/// gets a typed rejection and serving goes on to the next line.
#[test]
fn a_non_utf8_line_is_rejected_and_serving_continues() {
    let daemon = one_worker();
    let mut input = b"\xff\xfe garbage\n".to_vec();
    input.extend_from_slice(RUN_LINE.as_bytes());
    let mut out: Vec<u8> = Vec::new();
    daemon.serve(Cursor::new(input), &mut out).unwrap();
    let ev = events(&out);
    assert_eq!(ev[0], ("rejected".to_string(), String::new()), "{ev:?}");
    assert!(String::from_utf8_lossy(&out).contains("malformed-request"));
    let of_r: Vec<&str> = ev.iter().filter(|(_, id)| id == "r").map(|(e, _)| e.as_str()).collect();
    assert_eq!(of_r, ["accepted", "done"]);
}

/// A line past the longest valid request is rejected as malformed, once,
/// and serving goes on with the next line; the line arrives from a reader
/// that makes it up as it is read, so nothing holds it whole but the
/// daemon, and the daemon does not.
#[test]
fn an_over_long_line_is_rejected_and_serving_continues() {
    let daemon = one_worker();
    let long = std::io::repeat(b' ').take(MAX_LINE_BYTES as u64 + 1);
    let input = BufReader::new(long.chain(Cursor::new(format!("\n{RUN_LINE}"))));
    let mut out: Vec<u8> = Vec::new();
    daemon.serve(input, &mut out).unwrap();
    let text = String::from_utf8_lossy(&out);
    let ev = events(&out);
    assert_eq!(ev.len(), 3, "{text}");
    assert_eq!(ev[0], ("rejected".to_string(), String::new()), "{text}");
    assert!(text.lines().next().is_some_and(|l| l.contains("malformed-request")), "{text}");
    let of_r: Vec<&str> = ev.iter().filter(|(_, id)| id == "r").map(|(e, _)| e.as_str()).collect();
    assert_eq!(of_r, ["accepted", "done"]);
}

/// Hands out `data`, then fails every read after it.
struct FailsAfter {
    data: Cursor<Vec<u8>>,
}

impl Read for FailsAfter {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self.data.read(buf)? {
            0 => Err(std::io::Error::other("connection reset")),
            n => Ok(n),
        }
    }
}

/// A read error is not an end of input: `serve` still drains the job it
/// accepted before the error, then returns the error.
#[test]
fn a_read_error_drains_accepted_jobs_and_is_returned() {
    let daemon = one_worker();
    let input = BufReader::new(FailsAfter { data: Cursor::new(RUN_LINE.as_bytes().to_vec()) });
    let mut out: Vec<u8> = Vec::new();
    let err = daemon.serve(input, &mut out).unwrap_err();
    assert_eq!(err.to_string(), "connection reset");
    let of_r: Vec<String> = events(&out).into_iter().filter(|(_, id)| id == "r").map(|e| e.0).collect();
    assert_eq!(of_r, ["accepted", "done"]);
}
