//! The serving daemon: many concurrent jobs, one simulated device.
//!
//! A [`Daemon`] owns one [`Ssd`] with an attached shared [`PageCache`],
//! a registry of stored datasets, and a global memory [`Budget`]. Each
//! admitted job runs on its own *tenant view* of the device — private
//! I/O accounting and fault state, shared pages and cache — so jobs
//! faulting the same graph pages hit each other's cache fills, and an
//! injected crash in one job cannot touch its neighbours.
//!
//! Two entry points: [`Daemon::run_jobs`] executes a batch in-process on
//! a bounded worker pool and returns typed [`JobResult`]s (the test and
//! bench surface), and [`Daemon::serve`] drives the same pool from a
//! line-delimited JSON transport (stdin or a socket wrapped in
//! `BufRead`/`Write` — the `mlvc serve` subcommand).

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use mlvc_core::{Engine, EngineConfig, MultiLogEngine, RunReport};
use mlvc_graph::{Csr, StoredGraph, VertexIntervals, UPDATE_BYTES};
use mlvc_mutate::{
    EdgeMutation, IngestStats, MergeOutcome, MutationConfig, MutationError, MutationLog,
};
use mlvc_obs::MetricsSnapshot;
use mlvc_ssd::sync::Mutex as PoisonFreeMutex;
use mlvc_ssd::{
    DeviceError, FaultPlan, FileId, FtlConfig, PageCache, Ssd, SsdConfig, SsdStatsSnapshot,
    TenantCacheStats, TenantId,
};
use std::sync::Arc;

use crate::admission::{Budget, Reservation, MIN_JOB_BYTES};
use crate::protocol::{
    accepted_line, done_line, failed_line, mutated_line, queued_line, rejected_line, JobRequest,
    MutationRequest, RejectReason, Request,
};

/// Per-request cap on mutation batch size; a batch past this is rejected
/// with `mutation-too-large` rather than queued (it could monopolize the
/// ingest path and the budget).
pub const MAX_MUTATION_EDGES: usize = 1 << 20;

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
    /// Byte budget for pinning dataset CSR extents resident at
    /// registration time (adaptive memory tiering, DESIGN.md §18).
    /// Pinned bytes are carved out of `memory_budget` — DRAM holding
    /// pinned pages cannot be handed to jobs. 0 disables pinning.
    pub pin_budget_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            memory_budget: 64 << 20,
            cache_pages: 512,
            workers: 4,
            pin_budget_bytes: 0,
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
    datasets: BTreeMap<String, Arc<StoredGraph>>,
    /// Per-dataset on-device mutation logs (DESIGN.md §17), fed by the
    /// `mutate` op. Shared so an embedding engine can attach one for
    /// superstep-boundary merges.
    mutation_logs: BTreeMap<String, Arc<PoisonFreeMutex<MutationLog>>>,
    budget: Budget,
    workers: usize,
    next_tenant: AtomicU32,
    completed: PoisonFreeMutex<Completed>,
    /// Pinned-tier ledger (DESIGN.md §18): remaining pin budget plus, per
    /// dataset, the pinned extent files and the bytes carved from the
    /// admission budget for them.
    pins: PoisonFreeMutex<PinLedger>,
}

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

/// Bookkeeping for the daemon's pinned tier.
#[derive(Default)]
struct PinLedger {
    /// Unspent pin budget, in bytes.
    remaining: usize,
    /// Per dataset: pinned extent files and the bytes carved for them.
    datasets: BTreeMap<String, (Vec<FileId>, usize)>,
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
        // Attach the live FTL now, before any worker exists: every job
        // runs with obs on and would otherwise race to install it from
        // concurrent pool threads. Construction happens-before every
        // spawn, so the per-job `enable_ftl` calls are ordered no-ops.
        ssd.enable_ftl(FtlConfig::default());
        Daemon {
            ssd,
            cache,
            datasets: BTreeMap::new(),
            mutation_logs: BTreeMap::new(),
            budget: Budget::new(cfg.memory_budget),
            workers: cfg.workers.max(1),
            next_tenant: AtomicU32::new(1),
            completed: PoisonFreeMutex::new(Completed::default()),
            pins: PoisonFreeMutex::new(PinLedger {
                remaining: cfg.pin_budget_bytes,
                datasets: BTreeMap::new(),
            }),
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
        let iv = VertexIntervals::for_graph(graph, 16, sort);
        let sg = StoredGraph::store_with(&self.ssd, graph, name, iv.clone())?;
        self.pin_dataset(name, &sg)?;
        let mlog = MutationLog::new(
            Arc::clone(&self.ssd),
            iv,
            MutationConfig::default(),
            name,
        )
        .map_err(MutationError::into_device_error)?;
        self.datasets.insert(name.to_string(), Arc::new(sg));
        self.mutation_logs
            .insert(name.to_string(), Arc::new(PoisonFreeMutex::new(mlog)));
        Ok(())
    }

    /// Pin the dataset's interval extents (row-pointer + column-index
    /// files) into the shared cache's pinned tier, front to back, while
    /// each interval fits both the remaining pin budget and the free
    /// admission budget ([`Budget::carve`]). Registration order and
    /// interval order are deterministic, so the pinned set is too. The
    /// ledger records what was pinned so a mutation merge can re-pin
    /// after rewriting the extents.
    fn pin_dataset(&self, name: &str, sg: &StoredGraph) -> Result<(), DeviceError> {
        let page_bytes = mlvc_ssd::checked::to_u64(self.ssd.page_size());
        if self.pins.lock().remaining == 0 {
            return Ok(());
        }
        // Size every interval's extents first, so the ledger lock is
        // never held across a device call.
        let mut sized: Vec<(FileId, FileId, usize)> = Vec::new();
        let mut iv: u32 = 0;
        while mlvc_ssd::checked::idx(iv) < sg.intervals().num_intervals() {
            let (rp, ci) = (sg.rowptr_file(iv), sg.colidx_file(iv));
            let pages = self.ssd.num_pages(rp)?.saturating_add(self.ssd.num_pages(ci)?);
            let bytes =
                usize::try_from(pages.saturating_mul(page_bytes)).unwrap_or(usize::MAX);
            sized.push((rp, ci, bytes));
            iv += 1;
        }
        // Reserve greedily under the ledger; both ledgers commit before
        // any page moves so concurrent registrations cannot overdraw.
        let mut files: Vec<FileId> = Vec::new();
        let mut carved = 0usize;
        {
            let mut ledger = self.pins.lock();
            for &(rp, ci, bytes) in &sized {
                if bytes > 0 && bytes <= ledger.remaining && self.budget.carve(bytes) {
                    ledger.remaining -= bytes;
                    carved += bytes;
                    files.push(rp);
                    files.push(ci);
                }
            }
            if !files.is_empty() {
                ledger.datasets.insert(name.to_string(), (files.clone(), carved));
            }
        }
        // The reserved extents belong to this dataset alone, so pinning
        // them needs no lock.
        for f in files {
            self.cache.pin_file(&self.ssd, f)?;
        }
        Ok(())
    }

    /// Re-pin a dataset after a mutation merge rewrote its extents. The
    /// rewrite's truncate+append already dropped the stale pinned copies
    /// device-side; this returns the dataset's carve to the budget, then
    /// runs the same greedy pass so the pinned tier and both ledgers
    /// match the post-merge extent sizes.
    fn repin_dataset(&self, name: &str) -> Result<(), DeviceError> {
        let Some(sg) = self.datasets.get(name) else { return Ok(()) };
        {
            let mut ledger = self.pins.lock();
            match ledger.datasets.remove(name) {
                Some((files, carved)) => {
                    for f in files {
                        self.cache.unpin_file(f);
                    }
                    self.budget.uncarve(carved);
                    ledger.remaining += carved;
                }
                None if ledger.remaining == 0 => return Ok(()),
                None => {}
            }
        }
        self.pin_dataset(name, sg)
    }

    /// The dataset's shared mutation log, for attaching to an engine or
    /// inspecting pending counts. `None` for unregistered names.
    pub fn mutation_log(&self, name: &str) -> Option<Arc<PoisonFreeMutex<MutationLog>>> {
        self.mutation_logs.get(name).cloned()
    }

    /// Registered dataset names.
    pub fn dataset_names(&self) -> Vec<String> {
        self.datasets.keys().cloned().collect()
    }

    /// Admission check without reserving anything: would this request
    /// ever be runnable?
    pub fn validate(&self, req: &JobRequest) -> Result<(), RejectReason> {
        if req.id.is_empty() {
            return Err(RejectReason::MalformedRequest("empty job id".to_string()));
        }
        self.budget.check(req.memory_bytes)?;
        let g = self
            .datasets
            .get(&req.dataset)
            .ok_or_else(|| RejectReason::UnknownDataset(req.dataset.clone()))?;
        if mlvc_ssd::checked::idx(req.source) >= g.num_vertices() {
            return Err(RejectReason::MalformedRequest(format!(
                "source {} out of range for dataset {:?}",
                req.source, req.dataset
            )));
        }
        drop(mlvc_apps::by_name(&req.app, g.has_weights(), req.source)?);
        Ok(())
    }

    /// Admission check for a mutation batch without touching the log:
    /// dataset known and unweighted, batch under the per-request cap,
    /// every vertex id in range.
    pub fn validate_mutation(&self, req: &MutationRequest) -> Result<(), RejectReason> {
        if req.id.is_empty() {
            return Err(RejectReason::MalformedRequest("empty mutation id".to_string()));
        }
        let g = self
            .datasets
            .get(&req.dataset)
            .ok_or_else(|| RejectReason::UnknownDataset(req.dataset.clone()))?;
        if g.has_weights() {
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
        let n = g.num_vertices();
        for &(s, d) in req.add.iter().chain(&req.remove) {
            for v in [s, d] {
                if mlvc_ssd::checked::idx(v) >= n {
                    return Err(RejectReason::MutationOutOfRange { v, num_vertices: n });
                }
            }
        }
        Ok(())
    }

    /// Validate and ingest one mutation batch into the dataset's log,
    /// holding a budget reservation for the batch's in-memory footprint
    /// while the ingest runs (batches queue FIFO behind jobs under memory
    /// pressure, like any other admission).
    pub fn apply_mutation(&self, req: &MutationRequest) -> Result<IngestStats, JobError> {
        self.validate_mutation(req).map_err(JobError::Rejected)?;
        let mlog = self
            .mutation_logs
            .get(&req.dataset)
            .ok_or_else(|| {
                JobError::Rejected(RejectReason::UnknownDataset(req.dataset.clone()))
            })?;
        let footprint = req.len().saturating_mul(UPDATE_BYTES).max(MIN_JOB_BYTES);
        let hold = self.budget.reserve_blocking(footprint);
        let mut batch = Vec::with_capacity(req.len());
        batch.extend(req.add.iter().map(|&(s, d)| EdgeMutation::add(s, d)));
        batch.extend(req.remove.iter().map(|&(s, d)| EdgeMutation::remove(s, d)));
        let ingested = mlog.lock().ingest(&batch);
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
        let Some(mlog) = self.mutation_logs.get(dataset) else {
            return Ok(None);
        };
        let Some(graph) = self.datasets.get(dataset) else {
            return Ok(None);
        };
        let mut guard = mlog.lock();
        if guard.pending() == 0 {
            return Ok(None);
        }
        let outcome = guard.merge(graph).map_err(MutationError::into_device_error)?;
        drop(guard);
        // The merge's truncate+append rewrite already invalidated the
        // dirty extents' cached and pinned pages; re-pin against the new
        // extent sizes so the pinned tier and budget carve stay accurate.
        self.repin_dataset(dataset)?;
        Ok(Some(outcome))
    }

    /// Run one already-validated job under a held reservation: give it a
    /// private tenant view of the device, rebind the stored graph to the
    /// view, and drive the engine.
    fn execute(&self, req: &JobRequest) -> Result<JobOutcome, JobError> {
        let graph = self
            .datasets
            .get(&req.dataset)
            .ok_or_else(|| JobError::Rejected(RejectReason::UnknownDataset(req.dataset.clone())))?;
        let prog = mlvc_apps::by_name(&req.app, graph.has_weights(), req.source)
            .map_err(|e| JobError::Rejected(e.into()))?;
        let tenant = self.next_tenant.fetch_add(1, Ordering::SeqCst);
        let view = Arc::new(self.ssd.tenant_view(tenant));
        if let Some(n) = req.crash_after {
            view.install_fault_plan(FaultPlan::crash_after(n, req.seed));
        }
        let cfg = EngineConfig::default()
            .with_memory(req.memory_bytes)
            .with_seed(req.seed)
            .with_async(req.async_mode)
            .with_obs(true)
            .with_tag(&req.id);
        cfg.validate().map_err(|e| JobError::Failed { code: e.code(), error: e.to_string() })?;
        let bound = Arc::new(graph.with_device(Arc::clone(&view)));
        let mut engine = MultiLogEngine::with_shared_graph(Arc::clone(&view), bound, cfg);
        let report = engine.run(prog.as_ref(), req.steps);
        self.note_completed(&req.id, report.obs.clone());
        if let Some(e) = &report.interrupted {
            return Err(JobError::Failed { code: e.code(), error: e.to_string() });
        }
        let states = engine.states().to_vec();
        let device = view.stats().snapshot();
        let cache = self.cache.snapshot().tenant(tenant);
        Ok(JobOutcome { id: req.id.clone(), tenant, report, states, device, cache })
    }

    /// Validate, reserve (waiting if the budget is currently exhausted),
    /// and run one job on the calling thread.
    pub fn run_job(&self, req: &JobRequest) -> JobResult {
        if let Err(r) = self.validate(req) {
            return JobResult {
                id: req.id.clone(),
                queued: false,
                outcome: Err(JobError::Rejected(r)),
            };
        }
        let (queued, hold) = self.admit(req.memory_bytes);
        let outcome = self.execute(req);
        drop(hold);
        JobResult { id: req.id.clone(), queued, outcome }
    }

    /// Reserve budget, reporting whether the job had to queue.
    fn admit(&self, bytes: usize) -> (bool, Reservation<'_>) {
        match self.budget.try_reserve(bytes) {
            Some(r) => (false, r),
            None => (true, self.budget.reserve_blocking(bytes)),
        }
    }

    /// Execute a batch of jobs on the daemon's bounded worker pool.
    /// Results come back in submission order; jobs start FIFO but finish
    /// in any order, all sharing the device and its page cache.
    pub fn run_jobs(&self, reqs: Vec<JobRequest>) -> Vec<JobResult> {
        let n = reqs.len();
        let queue: PoisonFreeMutex<VecDeque<(usize, JobRequest)>> =
            PoisonFreeMutex::new(reqs.into_iter().enumerate().collect());
        let results: PoisonFreeMutex<Vec<Option<JobResult>>> =
            PoisonFreeMutex::new((0..n).map(|_| None).collect());
        let workers = self.workers.min(n.max(1));
        mlvc_par::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    while let Some((idx, req)) = pop_job(&queue) {
                        let res = self.run_job(&req);
                        store_result(&results, idx, res);
                    }
                });
            }
        });
        results
            .into_inner()
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                r.unwrap_or_else(|| JobResult {
                    id: format!("job-{i}"),
                    queued: false,
                    outcome: Err(JobError::Failed {
                        code: "worker-terminated",
                        error: "worker terminated".to_string(),
                    }),
                })
            })
            .collect()
    }

    /// Drive the worker pool from a line-delimited JSON transport: read
    /// requests from `input`, write reply events to `output` (interleaved
    /// across jobs; each line is one JSON object). Returns after a
    /// `shutdown` request or EOF, once every accepted job has finished.
    pub fn serve<R: BufRead, W: Write + Send>(&self, input: R, output: W) -> std::io::Result<()> {
        let out = PoisonFreeMutex::new(output);
        let q = ServeQueue::default();
        mlvc_par::scope(|s| {
            for _ in 0..self.workers {
                s.spawn(|| {
                    while let Some(req) = q.pop() {
                        let hold = match self.budget.try_reserve(req.memory_bytes) {
                            Some(r) => r,
                            None => {
                                emit(&out, &queued_line(&req.id));
                                self.budget.reserve_blocking(req.memory_bytes)
                            }
                        };
                        let outcome = self.execute(&req);
                        drop(hold);
                        match outcome {
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
                            // Admitted already: whatever ends it now, it failed.
                            Err(JobError::Rejected(r)) => {
                                emit(&out, &failed_line(&req.id, r.code(), &r.to_string()))
                            }
                            Err(JobError::Failed { code, error }) => {
                                emit(&out, &failed_line(&req.id, code, &error))
                            }
                        }
                    }
                });
            }
            for line in input.lines() {
                let Ok(line) = line else { break };
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                match Request::parse(line) {
                    Ok(Request::Run(req)) => match self.validate(&req) {
                        Ok(()) => {
                            emit(&out, &accepted_line(&req.id));
                            q.push(req);
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
            q.close();
        });
        Ok(())
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
    pub fn stats_line(&self) -> String {
        let d = self.ssd.stats().snapshot();
        let c = self.cache.snapshot();
        format!(
            "{{\"event\":\"stats\",\"jobs_completed\":{},\"device_pages_read\":{},\
             \"device_pages_written\":{},\"cache_hits\":{},\"cache_misses\":{},\
             \"cache_evictions\":{},\"cross_tenant_hits\":{},\"pinned_pages\":{},\
             \"pinned_hits\":{},\"budget_total\":{},\"budget_reserved\":{}}}",
            self.completed.lock().jobs,
            d.pages_read,
            d.pages_written,
            c.total_hits(),
            c.total_misses(),
            c.evictions,
            c.cross_tenant_hits,
            c.pinned_pages,
            c.pinned_hits,
            self.budget.total(),
            self.budget.reserved(),
        )
    }

    /// Daemon-wide metrics in Prometheus text exposition format: shared
    /// device totals, shared cache counters (with per-tenant series), and
    /// the end-of-run registry snapshots of the most recently completed
    /// jobs, labeled with their job ids.
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
        s.push_str(&format!("mlvc_serve_cache_pinned_pages {}\n", c.pinned_pages));
        s.push_str(&format!("mlvc_serve_cache_pinned_bytes {}\n", c.pinned_bytes));
        s.push_str(&format!("mlvc_serve_cache_pinned_hits_total {}\n", c.pinned_hits));
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
        for (job, snap) in &self.completed.lock().recent {
            s.push_str(&snap.to_prometheus_labeled(job));
        }
        s
    }
}

fn pop_job(q: &PoisonFreeMutex<VecDeque<(usize, JobRequest)>>) -> Option<(usize, JobRequest)> {
    q.lock().pop_front()
}

fn store_result(r: &PoisonFreeMutex<Vec<Option<JobResult>>>, idx: usize, val: JobResult) {
    r.lock()[idx] = Some(val);
}

/// Write one reply line, swallowing transport errors (a client that hung
/// up stops caring about its replies; the daemon must not).
fn emit<W: Write>(out: &PoisonFreeMutex<W>, line: &str) {
    let _ = writeln!(out.lock(), "{line}");
}

fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Blocking FIFO handoff between the transport dispatcher and the worker
/// pool. Raw `std::sync::Mutex` because waiting needs a [`Condvar`].
#[derive(Default)]
struct ServeQueue {
    /// (pending jobs, closed flag).
    state: Mutex<(VecDeque<JobRequest>, bool)>,
    ready: Condvar,
}

impl ServeQueue {
    fn push(&self, job: JobRequest) {
        locked(&self.state).0.push_back(job);
        self.ready.notify_one();
    }

    fn close(&self) {
        locked(&self.state).1 = true;
        self.ready.notify_all();
    }

    /// Next job, blocking while the queue is open but empty; `None` once
    /// it is closed and drained.
    fn pop(&self) -> Option<JobRequest> {
        let mut g = locked(&self.state);
        loop {
            if let Some(job) = g.0.pop_front() {
                return Some(job);
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
    }
}
