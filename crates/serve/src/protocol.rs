//! Line-delimited JSON request protocol for the serving daemon.
//!
//! Each request is one JSON object per line. The `op` field selects the
//! operation; everything else is op-specific:
//!
//! ```text
//! {"op":"run","id":"j1","app":"pagerank","dataset":"cf","memory_kb":2048,"steps":10}
//! {"op":"stats"}
//! {"op":"shutdown"}
//! ```
//!
//! Replies are also one JSON object per line: `accepted`, `queued`,
//! `rejected` (with a typed reason code), `done`, or `failed`. Parsing
//! uses the panic-free [`mlvc_obs::json`] reader; a malformed line yields
//! a typed [`RejectReason::MalformedRequest`], never a panic — the daemon
//! must survive arbitrary client input.

use std::fmt;

use mlvc_obs::json::{self, Json};
use mlvc_obs::json_escape;

/// One job submission: which app to run on which dataset, under what
/// memory reservation. Mirrors the `mlvc run` flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRequest {
    /// Client-chosen identity; becomes `EngineConfig::tag` and
    /// `RunReport::job_id`, and names the job's on-device artifacts.
    pub id: String,
    /// Vertex program name (`bfs`, `pagerank`, `wcc`, …).
    pub app: String,
    /// Name of a dataset registered with [`crate::Daemon::add_dataset`].
    pub dataset: String,
    /// Host-memory reservation for this job, in bytes. Admission control
    /// reserves this against the daemon's global budget for the job's
    /// whole lifetime.
    pub memory_bytes: usize,
    /// Superstep cap.
    pub steps: usize,
    /// Seed for deterministic per-vertex randomness.
    pub seed: u64,
    /// Source vertex for traversal apps.
    pub source: u32,
    /// Asynchronous computation model (§V-F).
    pub async_mode: bool,
    /// Fault injection: crash this job's device view after N page writes
    /// (testing hook; other tenants are unaffected).
    pub crash_after: Option<u64>,
}

impl Default for JobRequest {
    fn default() -> Self {
        JobRequest {
            id: String::new(),
            app: String::new(),
            dataset: String::new(),
            memory_bytes: 2 << 20,
            steps: 15,
            seed: 42,
            source: 0,
            async_mode: false,
            crash_after: None,
        }
    }
}

/// One edge-mutation submission: add/remove edge batches bound for a
/// dataset's on-device mutation log (DESIGN.md §17). Mirrors the
/// `mlvc ingest` batch format.
///
/// ```text
/// {"op":"mutate","id":"m1","dataset":"cf","add":[[0,9],[9,0]],"remove":[[3,4]]}
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MutationRequest {
    /// Client-chosen identity, echoed in the reply.
    pub id: String,
    /// Name of a dataset registered with [`crate::Daemon::add_dataset`].
    pub dataset: String,
    /// Edges to add, as `(src, dst)` pairs.
    pub add: Vec<(u32, u32)>,
    /// Edges to remove, as `(src, dst)` pairs.
    pub remove: Vec<(u32, u32)>,
}

impl MutationRequest {
    /// Total edges in the batch.
    pub fn len(&self) -> usize {
        self.add.len() + self.remove.len()
    }

    pub fn is_empty(&self) -> bool {
        self.add.is_empty() && self.remove.is_empty()
    }
}

/// A parsed protocol line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a job.
    Run(JobRequest),
    /// Submit an edge-mutation batch.
    Mutate(MutationRequest),
    /// Ask for a daemon-wide metrics snapshot.
    Stats,
    /// Drain the queue and exit the serve loop.
    Shutdown,
}

/// Why a job was turned away at admission. Every variant has a stable
/// machine-readable `code()` so clients can branch without parsing prose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The request asks for more memory than the daemon's whole budget —
    /// it could never be scheduled, so it is rejected rather than queued.
    BudgetExceedsTotal { requested: usize, total: usize },
    /// Below the engine's minimum viable budget (4 KiB); the engine
    /// asserts on such configs, so admission rejects them up front.
    BudgetTooSmall { requested: usize },
    /// No dataset registered under this name.
    UnknownDataset(String),
    /// No vertex program with this name.
    UnknownApp(String),
    /// The app needs edge weights but the dataset is unweighted.
    NeedsWeights(String),
    /// A mutation names a vertex the dataset does not have.
    MutationOutOfRange { v: u32, num_vertices: usize },
    /// A mutation batch exceeds the daemon's per-request edge cap.
    MutationTooLarge { edges: usize, max: usize },
    /// The line was not a well-formed request.
    MalformedRequest(String),
}

impl RejectReason {
    /// Stable machine-readable reason code.
    pub fn code(&self) -> &'static str {
        match self {
            RejectReason::BudgetExceedsTotal { .. } => "budget-exceeds-total",
            RejectReason::BudgetTooSmall { .. } => "budget-too-small",
            RejectReason::UnknownDataset(_) => "unknown-dataset",
            RejectReason::UnknownApp(_) => "unknown-app",
            RejectReason::NeedsWeights(_) => "needs-weights",
            RejectReason::MutationOutOfRange { .. } => "mutation-out-of-range",
            RejectReason::MutationTooLarge { .. } => "mutation-too-large",
            RejectReason::MalformedRequest(_) => "malformed-request",
        }
    }
}

/// The application registry's refusals are admission rejections.
impl From<mlvc_apps::AppError> for RejectReason {
    fn from(e: mlvc_apps::AppError) -> Self {
        match e {
            mlvc_apps::AppError::Unknown(app) => RejectReason::UnknownApp(app),
            mlvc_apps::AppError::NeedsWeights(app) => RejectReason::NeedsWeights(app),
        }
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::BudgetExceedsTotal { requested, total } => {
                write!(f, "requested {requested} B exceeds the daemon budget of {total} B")
            }
            RejectReason::BudgetTooSmall { requested } => {
                write!(f, "requested {requested} B is below the 4 KiB engine minimum")
            }
            RejectReason::UnknownDataset(d) => write!(f, "unknown dataset {d:?}"),
            RejectReason::UnknownApp(a) => write!(f, "unknown app {a:?}"),
            RejectReason::NeedsWeights(a) => write!(f, "app {a:?} needs a weighted dataset"),
            RejectReason::MutationOutOfRange { v, num_vertices } => {
                write!(f, "vertex {v} out of range (dataset has {num_vertices} vertices)")
            }
            RejectReason::MutationTooLarge { edges, max } => {
                write!(f, "batch of {edges} edges exceeds the per-request cap of {max}")
            }
            RejectReason::MalformedRequest(why) => write!(f, "malformed request: {why}"),
        }
    }
}

/// JSON numbers arrive as `f64`; recover the unsigned integer they encode
/// without a truncating cast. Rejects negatives, fractions, non-finite
/// values, and magnitudes beyond `u64`.
fn json_u64(v: &Json) -> Option<u64> {
    let n = v.as_num()?;
    if !n.is_finite() || n < 0.0 || n.fract() != 0.0 {
        return None;
    }
    format!("{n:.0}").parse().ok()
}

fn field_u64(obj: &Json, key: &str, default: u64) -> Result<u64, RejectReason> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => {
            json_u64(v).ok_or_else(|| bad(format!("{key} must be a non-negative integer")))
        }
    }
}

fn field_str(obj: &Json, key: &str) -> Result<String, RejectReason> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| bad(format!("missing string field {key:?}")))
}

fn bad(why: String) -> RejectReason {
    RejectReason::MalformedRequest(why)
}

fn width(key: &'static str, v: u64) -> Result<usize, RejectReason> {
    mlvc_ssd::checked::to_usize(key, v).map_err(|e| bad(format!("{e}")))
}

impl JobRequest {
    /// Parse the body of a `"run"` request.
    fn from_json(obj: &Json) -> Result<JobRequest, RejectReason> {
        let d = JobRequest::default();
        let memory_kb = field_u64(obj, "memory_kb", 0)?;
        let memory_bytes = if memory_kb > 0 {
            width("memory_kb", memory_kb)?.saturating_mul(1 << 10)
        } else {
            d.memory_bytes
        };
        let steps = width("steps", field_u64(obj, "steps", mlvc_ssd::checked::to_u64(d.steps))?)?;
        let seed = field_u64(obj, "seed", d.seed)?;
        let source = mlvc_ssd::checked::to_u32(
            "source",
            width("source", field_u64(obj, "source", 0)?)?,
        )
        .map_err(|e| bad(format!("{e}")))?;
        let crash = field_u64(obj, "crash_after", 0)?;
        Ok(JobRequest {
            id: field_str(obj, "id")?,
            app: field_str(obj, "app")?,
            dataset: field_str(obj, "dataset")?,
            memory_bytes,
            steps,
            seed,
            source,
            async_mode: obj.get("async").and_then(Json::as_bool).unwrap_or(false),
            crash_after: (crash > 0).then_some(crash),
        })
    }
}

/// Parse an optional `[[src, dst], …]` edge array. A missing key is an
/// empty batch; anything else malformed (a non-array, a pair that is not
/// two vertices, a vertex that is not a `u32`) is a typed rejection.
fn field_edges(obj: &Json, key: &str) -> Result<Vec<(u32, u32)>, RejectReason> {
    let Some(v) = obj.get(key) else {
        return Ok(Vec::new());
    };
    let arr = v
        .as_arr()
        .ok_or_else(|| bad(format!("{key} must be an array of [src, dst] pairs")))?;
    let mut out = Vec::with_capacity(arr.len());
    for (k, e) in arr.iter().enumerate() {
        let pair = e
            .as_arr()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| bad(format!("{key}[{k}] must be a [src, dst] pair")))?;
        let vertex = |side: usize, name: &str| -> Result<u32, RejectReason> {
            json_u64(&pair[side])
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| bad(format!("{key}[{k}].{name} must be a vertex id (u32)")))
        };
        out.push((vertex(0, "src")?, vertex(1, "dst")?));
    }
    Ok(out)
}

impl MutationRequest {
    /// Parse the body of a `"mutate"` request.
    fn from_json(obj: &Json) -> Result<MutationRequest, RejectReason> {
        Ok(MutationRequest {
            id: field_str(obj, "id")?,
            dataset: field_str(obj, "dataset")?,
            add: field_edges(obj, "add")?,
            remove: field_edges(obj, "remove")?,
        })
    }
}

impl Request {
    /// Parse one protocol line. Never panics: anything that is not a
    /// well-formed request becomes a typed [`RejectReason`].
    pub fn parse(line: &str) -> Result<Request, RejectReason> {
        let v = json::parse(line).map_err(|e| bad(format!("{e}")))?;
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing string field \"op\"".to_string()))?;
        match op {
            "run" => Ok(Request::Run(JobRequest::from_json(&v)?)),
            "mutate" => Ok(Request::Mutate(MutationRequest::from_json(&v)?)),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(bad(format!("unknown op {other:?}"))),
        }
    }
}

// ---- reply lines -----------------------------------------------------

/// `{"event":"accepted","id":…}` — the job passed admission and was
/// enqueued for a worker.
pub fn accepted_line(id: &str) -> String {
    format!("{{\"event\":\"accepted\",\"id\":{}}}", json_escape(id))
}

/// `{"event":"queued","id":…}` — the job's reservation did not fit the
/// free budget; it waits for running jobs to release memory.
pub fn queued_line(id: &str) -> String {
    format!("{{\"event\":\"queued\",\"id\":{}}}", json_escape(id))
}

/// `{"event":"rejected","id":…,"code":…,"reason":…}`.
pub fn rejected_line(id: &str, why: &RejectReason) -> String {
    format!(
        "{{\"event\":\"rejected\",\"id\":{},\"code\":{},\"reason\":{}}}",
        json_escape(id),
        json_escape(why.code()),
        json_escape(&format!("{why}"))
    )
}

/// `{"event":"mutated","id":…,"accepted":…,"deduped":…,"pending":…}` —
/// the batch was validated and ingested into the dataset's mutation log;
/// `pending` is the log's total queued edge count after this batch.
pub fn mutated_line(id: &str, accepted: u64, deduped: u64, pending: u64) -> String {
    format!(
        "{{\"event\":\"mutated\",\"id\":{},\"accepted\":{accepted},\"deduped\":{deduped},\
         \"pending\":{pending}}}",
        json_escape(id)
    )
}

/// `{"event":"failed","id":…,"code":…,"error":…}` — the job was admitted
/// and its run ended in an error: its device view faulted (an injected
/// crash: `device-crashed`), or the engine refused the run where it starts
/// (`needs-weights`). `code` is the error's stable code
/// (`DeviceError::code`, `ConfigError::code`), for clients to branch on;
/// `error` is prose.
pub fn failed_line(id: &str, code: &str, error: &str) -> String {
    format!(
        "{{\"event\":\"failed\",\"id\":{},\"code\":{},\"error\":{}}}",
        json_escape(id),
        json_escape(code),
        json_escape(error)
    )
}

/// `{"event":"done","id":…,…}` — completion summary for one job.
#[allow(clippy::too_many_arguments)]
pub fn done_line(
    id: &str,
    supersteps: usize,
    converged: bool,
    pages_read: u64,
    cache_hits: u64,
    sim_time_ns: u64,
) -> String {
    format!(
        "{{\"event\":\"done\",\"id\":{},\"supersteps\":{supersteps},\"converged\":{converged},\
         \"pages_read\":{pages_read},\"cache_hits\":{cache_hits},\"sim_time_ns\":{sim_time_ns}}}",
        json_escape(id)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_request_round_trips() {
        let line = "{\"op\":\"run\",\"id\":\"j1\",\"app\":\"bfs\",\"dataset\":\"cf\",\
                    \"memory_kb\":512,\"steps\":7,\"seed\":9,\"source\":3,\"async\":true}";
        let Ok(Request::Run(r)) = Request::parse(line) else {
            unreachable!("parse failed");
        };
        assert_eq!(r.id, "j1");
        assert_eq!(r.app, "bfs");
        assert_eq!(r.dataset, "cf");
        assert_eq!(r.memory_bytes, 512 << 10);
        assert_eq!(r.steps, 7);
        assert_eq!(r.seed, 9);
        assert_eq!(r.source, 3);
        assert!(r.async_mode);
        assert_eq!(r.crash_after, None);
    }

    #[test]
    fn defaults_fill_optional_fields() {
        let Ok(Request::Run(r)) =
            Request::parse("{\"op\":\"run\",\"id\":\"a\",\"app\":\"wcc\",\"dataset\":\"d\"}")
        else {
            unreachable!("parse failed");
        };
        let d = JobRequest::default();
        assert_eq!(r.memory_bytes, d.memory_bytes);
        assert_eq!(r.steps, d.steps);
        assert_eq!(r.seed, d.seed);
        assert!(!r.async_mode);
    }

    #[test]
    fn malformed_lines_become_typed_rejections() {
        for line in [
            "not json at all",
            "{\"op\":\"run\"}",
            "{\"op\":\"launch\"}",
            "{}",
            "{\"op\":\"run\",\"id\":\"x\",\"app\":\"bfs\",\"dataset\":\"d\",\"memory_kb\":-4}",
            "{\"op\":\"run\",\"id\":\"x\",\"app\":\"bfs\",\"dataset\":\"d\",\"steps\":1.5}",
        ] {
            let Err(r) = Request::parse(line) else {
                unreachable!("{line} should not parse");
            };
            assert_eq!(r.code(), "malformed-request", "{line}");
        }
    }

    #[test]
    fn control_ops_parse() {
        assert_eq!(Request::parse("{\"op\":\"stats\"}"), Ok(Request::Stats));
        assert_eq!(Request::parse("{\"op\":\"shutdown\"}"), Ok(Request::Shutdown));
    }

    #[test]
    fn mutate_request_round_trips() {
        let line = "{\"op\":\"mutate\",\"id\":\"m1\",\"dataset\":\"cf\",\
                    \"add\":[[0,9],[9,0]],\"remove\":[[3,4]]}";
        let Ok(Request::Mutate(m)) = Request::parse(line) else {
            unreachable!("parse failed");
        };
        assert_eq!(m.id, "m1");
        assert_eq!(m.dataset, "cf");
        assert_eq!(m.add, vec![(0, 9), (9, 0)]);
        assert_eq!(m.remove, vec![(3, 4)]);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn mutate_missing_arrays_default_empty() {
        let Ok(Request::Mutate(m)) =
            Request::parse("{\"op\":\"mutate\",\"id\":\"m\",\"dataset\":\"d\"}")
        else {
            unreachable!("parse failed");
        };
        assert!(m.is_empty());
    }

    #[test]
    fn malformed_mutate_lines_become_typed_rejections() {
        for line in [
            "{\"op\":\"mutate\"}",
            "{\"op\":\"mutate\",\"id\":\"m\"}",
            "{\"op\":\"mutate\",\"id\":\"m\",\"dataset\":\"d\",\"add\":7}",
            "{\"op\":\"mutate\",\"id\":\"m\",\"dataset\":\"d\",\"add\":[[1]]}",
            "{\"op\":\"mutate\",\"id\":\"m\",\"dataset\":\"d\",\"add\":[[1,2,3]]}",
            "{\"op\":\"mutate\",\"id\":\"m\",\"dataset\":\"d\",\"add\":[[1,-2]]}",
            "{\"op\":\"mutate\",\"id\":\"m\",\"dataset\":\"d\",\"add\":[[1,2.5]]}",
            "{\"op\":\"mutate\",\"id\":\"m\",\"dataset\":\"d\",\"add\":[[1,4294967296]]}",
            "{\"op\":\"mutate\",\"id\":\"m\",\"dataset\":\"d\",\"remove\":[\"x\"]}",
            "{\"op\":\"mutate\",\"id\":\"m\",\"dataset\":\"d\",\"remove\":[[\"a\",\"b\"]]}",
        ] {
            let Err(r) = Request::parse(line) else {
                unreachable!("{line} should not parse");
            };
            assert_eq!(r.code(), "malformed-request", "{line}");
        }
    }

    #[test]
    fn reply_lines_are_valid_json() {
        let why = RejectReason::UnknownDataset("who \"dis\"".to_string());
        for line in [
            accepted_line("j\"1"),
            queued_line("j1"),
            rejected_line("j1", &why),
            failed_line("j1", "device-crashed", "device crashed"),
            done_line("j1", 4, true, 100, 12, 5_000),
            mutated_line("m\"1", 7, 2, 9),
        ] {
            let v = json::parse(&line);
            assert!(v.is_ok(), "{line}");
        }
    }

    /// What a `failed` line's `code` can be: the code of the error that
    /// ended the run. Clients branch on these; they are pinned like the
    /// reject codes.
    #[test]
    fn failed_codes_are_stable() {
        use mlvc_core::ConfigError;
        use mlvc_ssd::{DeviceError, FtlError};
        let cases: Vec<(DeviceError, &str)> = vec![
            (DeviceError::Crashed, "device-crashed"),
            (DeviceError::ReadUnavailable { file: 1, page: 2, retries: 3 }, "read-unavailable"),
            (DeviceError::OutOfBounds { file: 1, page: 2 }, "out-of-bounds"),
            (DeviceError::Deleted { file: 1 }, "file-deleted"),
            (DeviceError::PayloadTooLarge { len: 9, page_size: 8 }, "payload-too-large"),
            (DeviceError::Io("x".to_string()), "io"),
            (DeviceError::Corrupt { what: "csr", detail: "x".to_string() }, "corrupt"),
            (DeviceError::Full(FtlError::NoFreeBlock { lpa: (1, 2) }), "device-full"),
            (ConfigError::NeedsWeights { app: "sssp" }.into(), "needs-weights"),
            (ConfigError::ZeroCheckpointCadence.into(), "zero-checkpoint-cadence"),
        ];
        for (e, code) in cases {
            assert_eq!(e.code(), code);
            let line = failed_line("j1", e.code(), &e.to_string());
            let v = json::parse(&line).expect("a failed line is JSON");
            assert_eq!(v.get("code").and_then(Json::as_str), Some(code), "{line}");
        }
    }

    #[test]
    fn reject_codes_are_stable() {
        let cases: Vec<(RejectReason, &str)> = vec![
            (
                RejectReason::BudgetExceedsTotal { requested: 9, total: 1 },
                "budget-exceeds-total",
            ),
            (RejectReason::BudgetTooSmall { requested: 1 }, "budget-too-small"),
            (RejectReason::UnknownDataset("x".to_string()), "unknown-dataset"),
            (RejectReason::UnknownApp("x".to_string()), "unknown-app"),
            (RejectReason::NeedsWeights("sssp".to_string()), "needs-weights"),
            (
                RejectReason::MutationOutOfRange { v: 99, num_vertices: 10 },
                "mutation-out-of-range",
            ),
            (
                RejectReason::MutationTooLarge { edges: 2_000_000, max: 1_000_000 },
                "mutation-too-large",
            ),
            (RejectReason::MalformedRequest("x".to_string()), "malformed-request"),
        ];
        for (r, code) in cases {
            assert_eq!(r.code(), code);
            assert!(!format!("{r}").is_empty());
        }
    }
}
