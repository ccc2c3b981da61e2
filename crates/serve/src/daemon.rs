//! The serving daemon: many concurrent jobs, one simulated device.
//!
//! A [`Daemon`] owns one [`Ssd`] with an attached shared [`PageCache`],
//! a registry of stored datasets, and a global memory [`Budget`]. Each
//! admitted job runs on its own *tenant view* of the device — private
//! I/O accounting and fault state, shared pages and cache — so jobs
//! faulting the same graph pages hit each other's cache fills, and an
//! injected crash in one job cannot touch its neighbours.
//!
//! Every job takes one path — validate, admit, execute, release — whichever
//! entry point it came through: [`Daemon::run_job`] on the calling thread,
//! [`Daemon::run_jobs`] as an in-process batch returning typed
//! [`JobResult`]s (the test and bench surface), and [`Daemon::serve`] from
//! a line-delimited JSON transport (stdin or a socket wrapped in
//! `BufRead`/`Write` — the `mlvc serve` subcommand). The last two drive the
//! same bounded worker pool.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Condvar, PoisonError};

use mlvc_core::{Engine, EngineConfig, MultiLogEngine, RunReport, VertexProgram};
use mlvc_graph::{Csr, StoredGraph, VertexIntervals, UPDATE_BYTES};
use mlvc_mutate::{
    EdgeMutation, IngestStats, MergeOutcome, MutationConfig, MutationError, MutationLog,
};
use mlvc_obs::{to_prometheus, MetricsSnapshot};
use mlvc_ssd::sync::Mutex;
use mlvc_ssd::{
    DeviceError, FaultPlan, FtlConfig, PageCache, Ssd, SsdConfig, SsdStatsSnapshot,
    TenantCacheStats, TenantId,
};
use std::sync::Arc;

use crate::admission::{Budget, MIN_JOB_BYTES};
use crate::protocol::{
    accepted_line, done_line, failed_line, mutated_line, queued_line, rejected_line, JobRequest,
    MutationRequest, RejectReason, Request,
};

/// Per-request cap on mutation batch size; a batch past this is rejected
/// with `mutation-too-large` rather than queued (it could monopolize the
/// ingest path and the budget).
pub const MAX_MUTATION_EDGES: usize = 1 << 20;

/// The longest request line [`Daemon::serve`] reads whole: a `mutate` of
/// [`MAX_MUTATION_EDGES`] edges of the widest ids, each written
/// `[4294967295,4294967295],`, plus 64 KiB for its other fields. A longer
/// line is rejected as a malformed request and skipped to its newline
/// without being buffered.
pub const MAX_LINE_BYTES: usize =
    MAX_MUTATION_EDGES * "[4294967295,4294967295],".len() + (64 << 10);

/// Daemon sizing knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Global host-memory budget shared by all concurrently running jobs
    /// (each job reserves its `memory_bytes` against this for its whole
    /// lifetime).
    pub memory_budget: usize,
    /// Shared page-cache capacity, in device pages.
    pub cache_pages: usize,
    /// Worker threads executing jobs.
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            memory_budget: 64 << 20,
            cache_pages: 512,
            workers: 4,
        }
    }
}

/// Why a job produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// Turned away at admission, never started.
    Rejected(RejectReason),
    /// Started — or was about to — and its run ended in an error: its
    /// device view faulted (e.g. an injected crash), or the engine refused
    /// the run. `code` is the error's stable code (`DeviceError::code`,
    /// `ConfigError::code`), `error` its text.
    Failed { code: &'static str, error: String },
}


impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Rejected(r) => write!(f, "rejected ({}): {r}", r.code()),
            JobError::Failed { code, error } => write!(f, "failed ({code}): {error}"),
        }
    }
}

/// Everything a completed job produced.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    pub id: String,
    /// Tenant id of the job's device view (attributes its cache traffic).
    pub tenant: TenantId,
    pub report: RunReport,
    /// Final per-vertex states — bit-identical to a standalone run of the
    /// same app/dataset/config (the serving determinism contract).
    pub states: Vec<u64>,
    /// Device I/O charged to this job's view only (cache hits charge
    /// nothing; see `mlvc_ssd::PageCache`).
    pub device: SsdStatsSnapshot,
    /// This job's share of the shared cache's traffic.
    pub cache: TenantCacheStats,
}

/// One entry of [`Daemon::run_jobs`]' output, in submission order.
#[derive(Debug, Clone)]
pub struct JobResult {
    pub id: String,
    /// True when the job's reservation did not fit the free budget at
    /// submission and it had to wait for running jobs to release memory.
    pub queued: bool,
    pub outcome: Result<JobOutcome, JobError>,
}

/// Multi-tenant serving daemon over one simulated flash device.
pub struct Daemon {
    ssd: Arc<Ssd>,
    cache: Arc<PageCache>,
    datasets: BTreeMap<String, Dataset>,
    budget: Budget,
    workers: usize,
    next_tenant: AtomicU32,
    completed: Mutex<Completed>,
}

/// Everything the daemon keeps of one registered dataset.
struct Dataset {
    graph: StoredGraph,
    /// The on-device mutation log (DESIGN.md §17), fed by the `mutate` op.
    /// Shared so an embedding engine can attach it.
    mutations: Arc<Mutex<MutationLog>>,
}

/// How a validated job's run failed: the error's stable code and its text.
type Failure = (&'static str, String);

/// Jobs whose end-of-run metrics the Prometheus rollup keeps: the most
/// recent ones, so a daemon's memory does not grow with the jobs it has
/// served.
const ROLLUP_JOBS: usize = 64;

/// What the daemon remembers of finished jobs: how many there have been,
/// and the end-of-run metrics of the last [`ROLLUP_JOBS`] of them.
#[derive(Default)]
struct Completed {
    jobs: u64,
    recent: VecDeque<(String, MetricsSnapshot)>,
}

impl Daemon {
    /// A daemon over a fresh in-memory device.
    pub fn new(cfg: ServeConfig) -> Self {
        Self::with_device(cfg, Arc::new(Ssd::new(SsdConfig::default())))
    }

    /// A daemon over a caller-provided device (e.g. file-backed via
    /// `--ssd-dir`). Attaches the shared page cache to it.
    pub fn with_device(cfg: ServeConfig, ssd: Arc<Ssd>) -> Self {
        let cache = Arc::new(PageCache::new(cfg.cache_pages));
        ssd.attach_cache(Arc::clone(&cache));
        // Attach the live FTL now, before any worker exists, so every job's
        // `ftl_*` counters and metrics snapshot count flash writes.
        ssd.enable_ftl(FtlConfig::default());
        Daemon {
            ssd,
            cache,
            datasets: BTreeMap::new(),
            budget: Budget::new(cfg.memory_budget),
            workers: cfg.workers.max(1),
            next_tenant: AtomicU32::new(1),
            completed: Mutex::new(Completed::default()),
        }
    }

    /// The shared device (its stats aggregate every tenant's charges).
    pub fn device(&self) -> &Arc<Ssd> {
        &self.ssd
    }

    /// The shared page cache.
    pub fn cache(&self) -> &PageCache {
        &self.cache
    }

    /// The global admission budget.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Store `graph` on the shared device under `name`, making it
    /// runnable by jobs. Interval partitioning uses the default engine
    /// sort budget so any job budget can process it.
    pub fn add_dataset(&mut self, name: &str, graph: &Csr) -> Result<(), DeviceError> {
        let sort = EngineConfig::default().sort_budget();
        let iv = VertexIntervals::for_graph(graph, UPDATE_BYTES, sort);
        let ds = Dataset {
            graph: StoredGraph::store_with(&self.ssd, graph, name, iv.clone())?,
            mutations: Arc::new(Mutex::new(
                MutationLog::new(Arc::clone(&self.ssd), iv, MutationConfig::default(), name)
                    .map_err(MutationError::into_device_error)?,
            )),
        };
        self.datasets.insert(name.to_string(), ds);
        Ok(())
    }

    /// The dataset's shared mutation log, for attaching to an engine or
    /// inspecting pending counts. `None` for unregistered names.
    pub fn mutation_log(&self, name: &str) -> Option<Arc<Mutex<MutationLog>>> {
        self.datasets.get(name).map(|ds| Arc::clone(&ds.mutations))
    }

    /// Admission check without reserving anything: would this request
    /// ever be runnable? Resolves it to the dataset record it names and
    /// the program it runs.
    fn validate(
        &self,
        req: &JobRequest,
    ) -> Result<(&Dataset, Box<dyn VertexProgram>), RejectReason> {
        if req.id.is_empty() {
            return Err(RejectReason::MalformedRequest("empty job id".to_string()));
        }
        self.budget.check(req.memory_bytes)?;
        let ds = self
            .datasets
            .get(&req.dataset)
            .ok_or_else(|| RejectReason::UnknownDataset(req.dataset.clone()))?;
        if mlvc_ssd::checked::idx(req.source) >= ds.graph.num_vertices() {
            return Err(RejectReason::MalformedRequest(format!(
                "source {} out of range for dataset {:?}",
                req.source, req.dataset
            )));
        }
        let prog = mlvc_apps::by_name(&req.app, ds.graph.has_weights(), req.source)?;
        Ok((ds, prog))
    }

    /// Admission check for a mutation batch without touching the log:
    /// dataset known and unweighted, batch under the per-request cap,
    /// every vertex id in range. Resolves it to the dataset record and
    /// the batch to ingest.
    fn validate_mutation(
        &self,
        req: &MutationRequest,
    ) -> Result<(&Dataset, Vec<EdgeMutation>), RejectReason> {
        if req.id.is_empty() {
            return Err(RejectReason::MalformedRequest("empty mutation id".to_string()));
        }
        let ds = self
            .datasets
            .get(&req.dataset)
            .ok_or_else(|| RejectReason::UnknownDataset(req.dataset.clone()))?;
        if ds.graph.has_weights() {
            return Err(RejectReason::MalformedRequest(format!(
                "dataset {:?} is weighted; edge mutations are unsupported",
                req.dataset
            )));
        }
        if req.len() > MAX_MUTATION_EDGES {
            return Err(RejectReason::MutationTooLarge {
                edges: req.len(),
                max: MAX_MUTATION_EDGES,
            });
        }
        let mut batch = Vec::with_capacity(req.len());
        batch.extend(req.add.iter().map(|&(s, d)| EdgeMutation::add(s, d)));
        batch.extend(req.remove.iter().map(|&(s, d)| EdgeMutation::remove(s, d)));
        if let Err(MutationError::OutOfRange { v, num_vertices }) =
            mlvc_mutate::validate_range(&batch, ds.graph.num_vertices())
        {
            return Err(RejectReason::MutationOutOfRange { v, num_vertices });
        }
        Ok((ds, batch))
    }

    /// Validate and ingest one mutation batch into the dataset's log,
    /// holding a budget reservation for the batch's in-memory footprint
    /// while the ingest runs (batches queue FIFO behind jobs under memory
    /// pressure, like any other admission).
    pub fn apply_mutation(&self, req: &MutationRequest) -> Result<IngestStats, JobError> {
        let (ds, batch) = self.validate_mutation(req).map_err(JobError::Rejected)?;
        let footprint = req.len().saturating_mul(UPDATE_BYTES).max(MIN_JOB_BYTES);
        let hold = self.budget.reserve_blocking(footprint);
        let ingested = ds.mutations.lock().ingest(&batch);
        drop(hold);
        ingested.map_err(|e| {
            let error = e.to_string();
            JobError::Failed { code: e.into_device_error().code(), error }
        })
    }

    /// Merge a dataset's pending mutations into its stored CSR. The caller
    /// is responsible for quiescence — no job may be mid-run on this
    /// dataset, since the merge rewrites its interval extents in place.
    /// Returns `None` when nothing was pending.
    pub fn merge_mutations(
        &self,
        dataset: &str,
    ) -> Result<Option<MergeOutcome>, DeviceError> {
        let Some(ds) = self.datasets.get(dataset) else {
            return Ok(None);
        };
        let mut log = ds.mutations.lock();
        if log.pending() == 0 {
            return Ok(None);
        }
        log.merge(&ds.graph).map(Some).map_err(MutationError::into_device_error)
    }

    /// The one job lifecycle after validation: admit (`on_queued` runs
    /// once, before the job waits, if its reservation does not fit the
    /// free budget now), execute on a private tenant view of the device
    /// with the stored graph rebound to the view, release on return.
    fn admit_and_execute(
        &self,
        req: &JobRequest,
        ds: &Dataset,
        prog: &dyn VertexProgram,
        on_queued: impl FnOnce(),
    ) -> Result<JobOutcome, Failure> {
        let _hold = self.budget.try_reserve(req.memory_bytes).unwrap_or_else(|| {
            on_queued();
            self.budget.reserve_blocking(req.memory_bytes)
        });
        let tenant = self.next_tenant.fetch_add(1, Ordering::SeqCst);
        let view = Arc::new(self.ssd.tenant_view(tenant));
        if let Some(n) = req.crash_after {
            view.install_fault_plan(FaultPlan::crash_after(n, req.seed));
        }
        let cfg = EngineConfig::default()
            .with_memory(req.memory_bytes)
            .with_seed(req.seed)
            .with_async(req.async_mode)
            .with_tag(&req.id);
        let bound = Arc::new(ds.graph.with_device(Arc::clone(&view)));
        let mut engine = MultiLogEngine::with_shared_graph(Arc::clone(&view), bound, cfg);
        let report = engine.run(prog, req.steps);
        self.note_completed(&req.id, report.obs.clone());
        if let Some(e) = &report.interrupted {
            return Err((e.code(), e.to_string()));
        }
        let states = engine.states().to_vec();
        let device = view.stats().snapshot();
        let cache = self.cache.snapshot().tenant(tenant);
        Ok(JobOutcome { id: req.id.clone(), tenant, report, states, device, cache })
    }

    /// Validate, reserve (waiting if the budget is currently exhausted),
    /// and run one job on the calling thread.
    pub fn run_job(&self, req: &JobRequest) -> JobResult {
        let mut queued = false;
        let outcome = self.validate(req).map_err(JobError::Rejected).and_then(|(ds, prog)| {
            self.admit_and_execute(req, ds, prog.as_ref(), || queued = true)
                .map_err(|(code, error)| JobError::Failed { code, error })
        });
        JobResult { id: req.id.clone(), queued, outcome }
    }

    /// Execute a batch of jobs on the daemon's bounded worker pool.
    /// Results come back in submission order; jobs start FIFO but finish
    /// in any order, all sharing the device and its page cache.
    pub fn run_jobs(&self, reqs: Vec<JobRequest>) -> Vec<JobResult> {
        let n = reqs.len();
        let results: Mutex<Vec<Option<JobResult>>> =
            Mutex::new((0..n).map(|_| None).collect());
        on_pool(
            self.workers.min(n.max(1)),
            |(i, req): (usize, JobRequest)| {
                let r = self.run_job(&req);
                results.lock()[i] = Some(r);
            },
            |q| reqs.into_iter().enumerate().for_each(|job| q.push(job)),
        );
        // Every slot is filled: a worker that panicked would have made
        // the pool's scope panic before this line.
        results.into_inner().into_iter().flatten().collect()
    }

    /// Drive the worker pool from a line-delimited JSON transport: read
    /// requests from `input`, write reply events to `output` (interleaved
    /// across jobs; each line is one JSON object). A line that is not UTF-8,
    /// or longer than [`MAX_LINE_BYTES`], is rejected like any malformed
    /// request. Returns after a `shutdown`
    /// request or EOF, once every accepted job has finished; a read error
    /// on `input` ends the reading the same way and is returned.
    pub fn serve<R: BufRead, W: Write + Send>(&self, input: R, output: W) -> std::io::Result<()> {
        let out = Mutex::new(output);
        let mut read = Ok(());
        let work = |(req, ds, prog): (JobRequest, &Dataset, Box<dyn VertexProgram>)| {
            let queued = || emit(&out, &queued_line(&req.id));
            match self.admit_and_execute(&req, ds, prog.as_ref(), queued) {
                Ok(o) => emit(
                    &out,
                    &done_line(
                        &o.id,
                        o.report.supersteps.len(),
                        o.report.converged,
                        o.device.pages_read,
                        o.cache.hits,
                        o.report.total_sim_time_ns(),
                    ),
                ),
                Err((code, error)) => emit(&out, &failed_line(&req.id, code, &error)),
            }
        };
        on_pool(self.workers, work, |q| {
            let (mut input, mut buf) = (input, Vec::new());
            loop {
                let line = match next_line(&mut input, &mut buf, MAX_LINE_BYTES) {
                    Ok(Line::End) => break,
                    Ok(Line::TooLong) => Err(format!("line longer than {MAX_LINE_BYTES} bytes")),
                    Ok(Line::Read) => {
                        std::str::from_utf8(&buf).map_err(|_| "line is not UTF-8".to_string())
                    }
                    Err(e) => {
                        read = Err(e);
                        break;
                    }
                };
                let line = match line {
                    Ok(line) => line.trim(),
                    Err(why) => {
                        emit(&out, &rejected_line("", &RejectReason::MalformedRequest(why)));
                        continue;
                    }
                };
                if line.is_empty() {
                    continue;
                }
                match Request::parse(line) {
                    Ok(Request::Run(req)) => match self.validate(&req) {
                        Ok((ds, prog)) => {
                            emit(&out, &accepted_line(&req.id));
                            q.push((req, ds, prog));
                        }
                        Err(r) => emit(&out, &rejected_line(&req.id, &r)),
                    },
                    // Ingest on the dispatcher thread: the batch lands in
                    // the mutation log before any later `run` line on the
                    // same connection is even parsed, so a client's
                    // mutate-then-run sequence is ordered by construction.
                    Ok(Request::Mutate(req)) => match self.apply_mutation(&req) {
                        Ok(ing) => {
                            let pending =
                                self.mutation_log(&req.dataset).map_or(0, |m| m.lock().pending());
                            emit(
                                &out,
                                &mutated_line(&req.id, ing.accepted, ing.deduped, pending),
                            );
                        }
                        Err(JobError::Rejected(r)) => emit(&out, &rejected_line(&req.id, &r)),
                        Err(JobError::Failed { code, error }) => {
                            emit(&out, &failed_line(&req.id, code, &error))
                        }
                    },
                    Ok(Request::Stats) => emit(&out, &self.stats_line()),
                    Ok(Request::Shutdown) => break,
                    Err(r) => emit(&out, &rejected_line("", &r)),
                }
            }
        });
        read
    }

    fn note_completed(&self, job: &str, obs: Option<MetricsSnapshot>) {
        let mut done = self.completed.lock();
        done.jobs += 1;
        if let Some(snap) = obs {
            if done.recent.len() == ROLLUP_JOBS {
                done.recent.pop_front();
            }
            done.recent.push_back((job.to_string(), snap));
        }
    }

    /// Daemon-wide counters as one JSON line (the `stats` op reply).
    fn stats_line(&self) -> String {
        let d = self.ssd.stats().snapshot();
        let c = self.cache.snapshot();
        format!(
            "{{\"event\":\"stats\",\"jobs_completed\":{},\"device_pages_read\":{},\
             \"device_pages_written\":{},\"cache_hits\":{},\"cache_misses\":{},\
             \"cache_evictions\":{},\"cross_tenant_hits\":{},\"budget_total\":{},\
             \"budget_reserved\":{}}}",
            self.completed.lock().jobs,
            d.pages_read,
            d.pages_written,
            c.total_hits(),
            c.total_misses(),
            c.evictions,
            c.cross_tenant_hits,
            self.budget.total(),
            self.budget.reserved(),
        )
    }

    /// Daemon-wide metrics in Prometheus text exposition format: shared
    /// device totals, shared cache counters (with per-tenant series), and
    /// the end-of-run metrics snapshots of the most recently completed
    /// jobs, labeled with their job ids — one `# TYPE` line per family,
    /// then that family's sample from every job.
    pub fn prometheus_rollup(&self) -> String {
        let mut s = String::new();
        let d = self.ssd.stats().snapshot();
        s.push_str(&format!("mlvc_serve_device_pages_read_total {}\n", d.pages_read));
        s.push_str(&format!("mlvc_serve_device_pages_written_total {}\n", d.pages_written));
        s.push_str(&format!("mlvc_serve_device_bytes_read_total {}\n", d.bytes_read));
        s.push_str(&format!("mlvc_serve_device_bytes_written_total {}\n", d.bytes_written));
        let c = self.cache.snapshot();
        s.push_str(&format!("mlvc_serve_cache_capacity_pages {}\n", c.capacity_pages));
        s.push_str(&format!("mlvc_serve_cache_resident_pages {}\n", c.resident_pages));
        s.push_str(&format!("mlvc_serve_cache_hits_total {}\n", c.total_hits()));
        s.push_str(&format!("mlvc_serve_cache_misses_total {}\n", c.total_misses()));
        s.push_str(&format!("mlvc_serve_cache_evictions_total {}\n", c.evictions));
        s.push_str(&format!(
            "mlvc_serve_cache_cross_tenant_hits_total {}\n",
            c.cross_tenant_hits
        ));
        for (t, ts) in &c.tenants {
            s.push_str(&format!(
                "mlvc_serve_cache_tenant_hits_total{{tenant=\"{t}\"}} {}\n",
                ts.hits
            ));
            s.push_str(&format!(
                "mlvc_serve_cache_tenant_bytes_saved_total{{tenant=\"{t}\"}} {}\n",
                ts.bytes_saved
            ));
        }
        let done = self.completed.lock();
        let jobs: Vec<_> =
            done.recent.iter().map(|(job, snap)| (Some(job.as_str()), snap)).collect();
        s.push_str(&to_prometheus(&jobs));
        s
    }
}

/// What [`next_line`] found.
enum Line {
    /// A line, now in the buffer without its newline.
    Read,
    /// A line longer than the cap, consumed through its newline and not
    /// kept.
    TooLong,
    /// The end of the input.
    End,
}

/// Read the next line of `input` into `buf`, holding at most `max` bytes of
/// it: a longer line is read on to its newline, or the end of the input,
/// and dropped chunk by chunk as the reader hands it over.
fn next_line<R: BufRead>(input: &mut R, buf: &mut Vec<u8>, max: usize) -> std::io::Result<Line> {
    buf.clear();
    let (mut any, mut over) = (false, false);
    loop {
        let chunk = match input.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            return Ok(match (any, over) {
                (false, _) => Line::End,
                (true, false) => Line::Read,
                (true, true) => Line::TooLong,
            });
        }
        any = true;
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(chunk.len());
        over = over || buf.len() + take > max;
        if over {
            buf.clear();
        } else {
            buf.extend_from_slice(&chunk[..take]);
        }
        input.consume(take + usize::from(newline.is_some()));
        if newline.is_some() {
            return Ok(if over { Line::TooLong } else { Line::Read });
        }
    }
}

/// The daemon's worker pool: `workers` threads run `work` on each queued
/// item, FIFO, while `feed` fills the queue on the calling thread. Returns
/// once `feed` has returned and every item it queued has been worked.
fn on_pool<T: Send>(workers: usize, work: impl Fn(T) + Sync, feed: impl FnOnce(&ServeQueue<T>)) {
    let q = ServeQueue { state: Mutex::new((VecDeque::new(), false)), ready: Condvar::new() };
    mlvc_par::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                while let Some(item) = q.pop() {
                    work(item);
                }
            });
        }
        feed(&q);
        q.close();
    });
}

/// Write one reply line, swallowing transport errors (a client that hung
/// up stops caring about its replies; the daemon must not).
fn emit<W: Write>(out: &Mutex<W>, line: &str) {
    let _ = writeln!(out.lock(), "{line}");
}

/// Blocking FIFO handoff from the feeding thread to the worker pool.
struct ServeQueue<T> {
    /// (pending items, closed flag).
    state: Mutex<(VecDeque<T>, bool)>,
    ready: Condvar,
}

impl<T> ServeQueue<T> {
    fn push(&self, item: T) {
        self.state.lock().0.push_back(item);
        self.ready.notify_one();
    }

    fn close(&self) {
        self.state.lock().1 = true;
        self.ready.notify_all();
    }

    /// Next item, blocking while the queue is open but empty; `None` once
    /// it is closed and drained.
    fn pop(&self) -> Option<T> {
        let mut g = self.state.lock();
        loop {
            if let Some(item) = g.0.pop_front() {
                return Some(item);
            }
            if g.1 {
                return None;
            }
            g = self.ready.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    /// A line is read whole up to the cap; a longer one is consumed to its
    /// newline, never held past the cap, and the next line reads whole.
    #[test]
    fn next_line_caps_what_it_holds() {
        use super::{next_line, Line};
        let input = b"abc\n0123456789abcdefghij\n\nxy".to_vec();
        let mut input = std::io::BufReader::with_capacity(4, &input[..]);
        let mut buf = Vec::new();
        let mut got = Vec::new();
        loop {
            match next_line(&mut input, &mut buf, 8).unwrap() {
                Line::End => break,
                Line::TooLong => got.push(None),
                Line::Read => got.push(Some(String::from_utf8(buf.clone()).unwrap())),
            }
            assert!(buf.capacity() <= 16, "held {} bytes", buf.capacity());
        }
        let some = |s: &str| Some(s.to_string());
        assert_eq!(got, [some("abc"), None, some(""), some("xy")]);
    }

    use super::*;

    /// A long-lived daemon counts every job but keeps the metrics of the
    /// last `ROLLUP_JOBS` only.
    #[test]
    fn completed_jobs_are_counted_and_only_the_last_n_snapshots_kept() {
        let extra = 3;
        let mut daemon = Daemon::new(ServeConfig { workers: 1, ..ServeConfig::default() });
        daemon.add_dataset("p", &mlvc_gen::path(8)).unwrap();
        let reqs: Vec<JobRequest> = (0..ROLLUP_JOBS + extra)
            .map(|k| JobRequest {
                id: format!("j{k}"),
                app: "bfs".to_string(),
                dataset: "p".to_string(),
                memory_bytes: MIN_JOB_BYTES,
                steps: 2,
                ..JobRequest::default()
            })
            .collect();
        assert!(daemon.run_jobs(reqs).iter().all(|r| r.outcome.is_ok()));
        assert_eq!(daemon.completed.lock().recent.len(), ROLLUP_JOBS);
        let total = ROLLUP_JOBS + extra;
        assert!(daemon.stats_line().contains(&format!("\"jobs_completed\":{total},")));
        let rollup = daemon.prometheus_rollup();
        assert!(!rollup.contains(&format!("job=\"j{}\"", extra - 1)), "oldest dropped");
        assert!(rollup.contains(&format!("job=\"j{extra}\"")));
        assert!(rollup.contains(&format!("job=\"j{}\"", total - 1)));
        assert_prometheus_families_grouped(&rollup);
    }

    /// The live FTL is attached by `with_device` itself, before any worker
    /// or job exists: the dataset's own store writes are flash writes too,
    /// and no job's snapshot may depend on whether it ran first.
    #[test]
    fn the_ftl_is_attached_before_the_first_job() {
        let ssd = Arc::new(Ssd::new(SsdConfig::default()));
        let mut daemon = Daemon::with_device(ServeConfig::default(), ssd);
        assert!(daemon.device().ftl_stats().is_some(), "no FTL before the first job");
        daemon.add_dataset("p", &mlvc_gen::path(64)).unwrap();
        let ftl = daemon.device().ftl_stats().unwrap_or_default();
        assert_eq!(ftl.host_writes, daemon.device().stats().snapshot().pages_written);
    }

    /// The exposition format allows one `# TYPE` line per family and needs
    /// a family's samples together, under it.
    fn assert_prometheus_families_grouped(text: &str) {
        let typed: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE ")?.split(' ').next())
            .collect();
        let families: std::collections::BTreeSet<&str> = typed.iter().copied().collect();
        assert_eq!(families.len(), typed.len(), "a family has two TYPE lines");
        let mut current = "";
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                current = rest.split(' ').next().unwrap_or_default();
                continue;
            }
            let name = line.split(['{', ' ']).next().unwrap_or_default();
            let family = ["", "_bucket", "_sum", "_count"]
                .iter()
                .filter_map(|suffix| name.strip_suffix(suffix))
                .find(|f| families.contains(f));
            if let Some(family) = family {
                assert_eq!(family, current, "sample {line:?} outside its family's group");
            }
        }
    }
}
