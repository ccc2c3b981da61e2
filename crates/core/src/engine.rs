use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use mlvc_graph::{GraphLoader, IntervalId, StoredGraph, StructuralUpdateBuffer, VertexId};
use mlvc_log::{
    group_by_dest, BitSet, EdgeLogConfig, EdgeLogOptimizer, FusedBatch, MultiLog, MultiLogConfig,
    SortGroup, Update,
};
use mlvc_log::{EdgeLogStats, MultiLogStats};
use mlvc_mutate::MutationLog;
use mlvc_obs::{Registry, TraceRecord, TraceRing};
use mlvc_recover::{CheckpointManager, CheckpointState};
use mlvc_ssd::{
    CacheSnapshot, DeviceError, FileId, FtlConfig, FtlStats, IoQueue, PageCache, Ssd,
    SsdStatsSnapshot,
};

use crate::{
    Engine, EngineConfig, InitActive, Reconverge, RunReport, SuperstepStats, VertexCtx,
    VertexOutputs, VertexProgram,
};

/// Trace records kept per run when observability is on — far above any
/// evaluation run (the paper caps at 15 supersteps); beyond it the ring
/// keeps the most recent records so memory stays bounded.
const TRACE_RING_CAP: usize = 4096;

/// Active vertices an interval must bring before its process and scatter
/// stages fork. A fork/join spawns scoped threads — tens of microseconds
/// on a quiet machine, several times that on a busy one — which a sparse
/// frontier (a few hundred cheap vertices per interval, twice per interval
/// per superstep) never earns back: the stages then cost more than on one
/// thread and their wall time follows the machine's load instead of the
/// work. Results do not depend on the choice (DESIGN.md §12). The race
/// detector wants every fork it can get, so it keeps them all.
const FORK_MIN_ITEMS: usize = if cfg!(feature = "race-detect") { 1 } else { 2048 };

/// Engine-side observability state (active only with [`EngineConfig::obs`]).
/// Holds the trace ring plus the unit-stats baselines subtracted to turn
/// cumulative counters into per-superstep deltas.
struct ObsState {
    ring: TraceRing,
    /// Device stats at run start — the whole-run baseline behind the
    /// seed-phase record and the end-of-run registry counters.
    run_base: SsdStatsSnapshot,
    ml_base: MultiLogStats,
    el_base: EdgeLogStats,
    ftl_base: FtlStats,
    /// FTL stats at run start, for whole-run amplification gauges.
    ftl_run_base: FtlStats,
    /// Page-cache snapshot at run start (defaults when no cache is
    /// attached), for the whole-run `mlvc_cache_*` registry counters.
    cache_run_base: CacheSnapshot,
    /// Per-superstep cache baseline, updated like `ml_base`.
    cache_base: CacheSnapshot,
}

/// The MultiLogVC engine — Algorithm 1 of the paper.
///
/// Per superstep:
/// 1. the **sort & group unit** plans interval fusion from the previous
///    superstep's per-interval message counts, loads each fused log batch
///    with full channel parallelism, and stable-sorts it in memory;
/// 2. the active vertex set is extracted from the message destinations
///    (plus explicitly kept-active vertices);
/// 3. the **graph loader unit** fetches adjacency for active vertices only
///    — from the **edge log** when the previous superstep staged it there,
///    otherwise from the pages of the per-interval CSR that actually hold
///    active data;
/// 4. the user's processing function runs in parallel over active
///    vertices; outgoing updates go through the **multi-log update unit**;
/// 5. the **edge-log optimizer** stages out-edges of predicted-active
///    vertices sitting on inefficiently used pages;
/// 6. logs flush, structural updates past the threshold merge, statistics
///    are recorded.
pub struct MultiLogEngine {
    ssd: Arc<Ssd>,
    graph: Arc<StoredGraph>,
    cfg: EngineConfig,
    states: Vec<u64>,
    /// Shadow cell auditing the superstep state protocol: worker threads
    /// read the frozen `states` during parallel processing, the owner
    /// writes them only after the fan-out joins (DESIGN.md §14).
    states_audit: mlvc_par::Tracked<()>,
    /// Live-ingest mutation log (DESIGN.md §17), shared with whatever is
    /// accepting edge batches (the serving daemon, `mlvc ingest`). Pending
    /// batches merge into the stored CSR at superstep boundaries.
    mutations: Option<Arc<mlvc_ssd::sync::Mutex<MutationLog>>>,
}

/// How the superstep driver ended: ran to convergence/cap, or was cut
/// short by a [`Reconverge::Restart`] after a mid-run mutation merge (the
/// caller re-drives from scratch on the mutated graph).
enum DriveEnd {
    Completed,
    Restart,
}

/// Work unit handed to the parallel processing stage. Everything is
/// borrowed in place — message slices from the fused batch, adjacency from
/// the loader / edge log / combine buffers — so assembling the items copies
/// nothing (DESIGN.md §12).
struct WorkItem<'a> {
    v: VertexId,
    msgs: &'a [Update],
    edges: &'a [VertexId],
    weights: Option<&'a [f32]>,
    /// CSR page span of the vertex's edges; `None` when served from the
    /// edge log.
    csr_pages: Option<(u64, u64)>,
}

/// Stable merge of two dest-sorted runs; on equal destinations `a` (the
/// previous superstep's batch) stays ahead of `b` (the current superstep's
/// drained log) — the order the asynchronous model's whole-inbox re-sort
/// used to produce, without re-sorting already-sorted data.
fn merge_by_dest(a: &[Update], b: &[Update]) -> Vec<Update> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        if a[i].dest <= b[j].dest {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

impl MultiLogEngine {
    pub fn new(ssd: Arc<Ssd>, graph: StoredGraph, cfg: EngineConfig) -> Self {
        let cfg = cfg.validated();
        let states = vec![0u64; graph.num_vertices()];
        let states_audit = mlvc_par::Tracked::new("MultiLogEngine::states", ());
        MultiLogEngine {
            ssd,
            graph: Arc::new(graph),
            cfg,
            states,
            states_audit,
            mutations: None,
        }
    }

    /// Engine over an already shared stored graph.
    pub fn with_shared_graph(ssd: Arc<Ssd>, graph: Arc<StoredGraph>, cfg: EngineConfig) -> Self {
        let cfg = cfg.validated();
        let states = vec![0u64; graph.num_vertices()];
        let states_audit = mlvc_par::Tracked::new("MultiLogEngine::states", ());
        MultiLogEngine { ssd, graph, cfg, states, states_audit, mutations: None }
    }

    pub fn graph(&self) -> &Arc<StoredGraph> {
        &self.graph
    }

    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Attach a shared mutation log (DESIGN.md §17). Once attached, any
    /// batch pending at a superstep boundary merges into the stored CSR
    /// there, and the running program's [`VertexProgram::reconverge`]
    /// policy decides whether the run restarts or re-activates only the
    /// delta's dirty vertices. The log must partition vertices exactly
    /// like the stored graph.
    pub fn attach_mutations(
        &mut self,
        log: Arc<mlvc_ssd::sync::Mutex<MutationLog>>,
    ) -> Result<(), DeviceError> {
        {
            let guard = log.lock();
            if guard.intervals() != self.graph.intervals() {
                return Err(DeviceError::Io(
                    "mutation log interval partition does not match the stored graph"
                        .to_string(),
                ));
            }
        }
        self.mutations = Some(log);
        Ok(())
    }

    /// Merge the attached mutation log's pending batches into the stored
    /// CSR and bring vertex states back to a fixpoint on the mutated
    /// graph, per the program's [`VertexProgram::reconverge`] policy:
    /// either a full recompute or an incremental re-convergence that
    /// re-activates only the delta's dirty vertices. No-op (an immediately
    /// converged report) when nothing is pending or no log is attached.
    pub fn reconverge(&mut self, prog: &dyn VertexProgram, max_supersteps: usize) -> RunReport {
        let mut report = RunReport {
            engine: self.name().to_string(),
            app: prog.name().to_string(),
            job_id: self.cfg.tag.clone(),
            converged: true,
            ..Default::default()
        };
        let Some(mlog) = self.mutations.clone() else {
            return report;
        };
        let merged = {
            let mut guard = mlog.lock();
            if guard.pending() == 0 {
                Ok(None)
            } else {
                guard.merge(&self.graph, self.cfg.queue_depth).map(Some)
            }
        };
        let outcome = match merged {
            Ok(None) => return report,
            Ok(Some(outcome)) => outcome,
            Err(e) => {
                report.interrupted = Some(e.into_device_error());
                return report;
            }
        };
        report.mutations = Some(outcome.stats);
        let reseed = match prog.reconverge(&self.states, &outcome.delta) {
            Reconverge::Restart => None,
            Reconverge::Seed(seeds) => Some(seeds),
        };
        report.converged = false;
        if let Err(e) = self.run_loop(prog, max_supersteps, None, reseed, &mut report) {
            report.interrupted = Some(e);
        }
        report
    }

    /// Active vertices of one interval in this batch: destinations holding
    /// messages merged with explicitly kept-active vertices (or the whole
    /// interval on an all-active superstep). Returns `(v, message range)`
    /// pairs sorted by vertex.
    fn actives_for_interval(
        groups: &[(VertexId, Range<usize>)],
        self_active: &[VertexId],
        interval: Range<VertexId>,
        all_active: bool,
    ) -> Vec<(VertexId, Range<usize>)> {
        let gs = groups.partition_point(|(v, _)| *v < interval.start);
        let ge = groups.partition_point(|(v, _)| *v < interval.end);
        let groups = &groups[gs..ge];
        if all_active {
            let mut gi = 0usize;
            return interval
                .map(|v| {
                    if gi < groups.len() && groups[gi].0 == v {
                        gi += 1;
                        (v, groups[gi - 1].1.clone())
                    } else {
                        (v, 0..0)
                    }
                })
                .collect();
        }
        let ss = self_active.partition_point(|&v| v < interval.start);
        let se = self_active.partition_point(|&v| v < interval.end);
        let self_active = &self_active[ss..se];
        // Merge two sorted, duplicate-free streams.
        let mut out = Vec::with_capacity(groups.len() + self_active.len());
        let (mut gi, mut si) = (0usize, 0usize);
        while gi < groups.len() || si < self_active.len() {
            if si >= self_active.len()
                || (gi < groups.len() && groups[gi].0 <= self_active[si])
            {
                if si < self_active.len() && groups[gi].0 == self_active[si] {
                    si += 1;
                }
                out.push(groups[gi].clone());
                gi += 1;
            } else {
                out.push((self_active[si], 0..0));
                si += 1;
            }
        }
        out
    }

    /// Resume from the latest valid checkpoint on this engine's device (or
    /// start fresh when none exists) and run to completion, checkpointing
    /// along the way per [`EngineConfig::checkpoint_every`].
    ///
    /// The graph extents and checkpoint slots must live on the same device
    /// the interrupted run used; `RunReport::resumed_from` records the
    /// checkpointed superstep execution restarted after. Recovery is
    /// bit-exact for pure-compute programs (no structural updates) — see
    /// DESIGN.md §11 for the exact guarantee.
    pub fn run_recoverable(
        &mut self,
        prog: &dyn VertexProgram,
        max_supersteps: usize,
    ) -> RunReport {
        let mut report = RunReport {
            engine: self.name().to_string(),
            app: prog.name().to_string(),
            ..Default::default()
        };
        let resume = match self.load_resume_point() {
            Ok(r) => r,
            Err(e) => {
                report.interrupted = Some(e);
                return report;
            }
        };
        if let Some(cp) = &resume {
            report.resumed_from = Some(cp.superstep);
        }
        if let Err(e) = self.run_loop(prog, max_supersteps, resume.as_ref(), None, &mut report) {
            report.interrupted = Some(e);
        }
        report
    }

    /// Drive to completion, restarting from scratch whenever a mid-run
    /// mutation merge ends with [`Reconverge::Restart`]. `resume` and
    /// `reseed` apply to the first drive only; a restart always begins
    /// fresh on the (now mutated) graph. The restart discards the aborted
    /// attempt's supersteps — `RunReport::mutations` accumulates across
    /// attempts, so merge activity is never lost from the report.
    fn run_loop(
        &mut self,
        prog: &dyn VertexProgram,
        max_supersteps: usize,
        resume: Option<&CheckpointState>,
        reseed: Option<Vec<Update>>,
        report: &mut RunReport,
    ) -> Result<(), DeviceError> {
        let mut resume = resume;
        let mut reseed = reseed;
        loop {
            match self.drive(prog, max_supersteps, resume.take(), reseed.take(), report)? {
                DriveEnd::Completed => return Ok(()),
                DriveEnd::Restart => {
                    report.supersteps.clear();
                    report.converged = false;
                }
            }
        }
    }

    /// Latest checkpoint usable for this graph, if any. A checkpoint whose
    /// vertex count does not match the stored graph is ignored (it belongs
    /// to a different run), not treated as corruption.
    fn load_resume_point(&self) -> Result<Option<CheckpointState>, DeviceError> {
        let mgr = CheckpointManager::open(&self.ssd, &self.cfg.tag)?;
        Ok(mgr
            .load_latest()?
            .map(|(_, cp)| cp)
            .filter(|cp| cp.states.len() == self.graph.num_vertices()))
    }

    /// The superstep driver (Algorithm 1). Fresh runs pass `resume: None`;
    /// `run_recoverable` passes the recovered state; an incremental
    /// re-convergence passes `reseed: Some(...)` — current states are kept
    /// and the given updates become superstep 1's inbox. Fills `report` as
    /// it goes so completed supersteps survive a device fault.
    fn drive(
        &mut self,
        prog: &dyn VertexProgram,
        max_supersteps: usize,
        resume: Option<&CheckpointState>,
        reseed: Option<Vec<Update>>,
        report: &mut RunReport,
    ) -> Result<DriveEnd, DeviceError> {
        let n = self.graph.num_vertices();
        let intervals = self.graph.intervals().clone();
        let needs_weights = prog.needs_weights();
        let combine = prog.combine();

        report.engine = self.name().to_string();
        report.app = prog.name().to_string();
        report.job_id = self.cfg.tag.clone();

        // Adaptive memory tiering (DESIGN.md §18): attach the configured
        // page cache before any I/O so the whole run reads through it. A
        // cache already attached (the serving daemon's) always wins — the
        // engine never replaces or resizes an existing cache.
        if self.cfg.tiering.enabled() && self.ssd.cache().is_none() {
            let pages = self.cfg.tiering.cache_pages(self.ssd.page_size());
            self.ssd
                .attach_cache(Arc::new(PageCache::with_policy(pages, self.cfg.tiering.policy)));
        }

        // Observability (DESIGN.md §13): attach the live FTL before any
        // page write so flash amplification covers the whole run. Bases
        // are captured here — device stats may already be nonzero (graph
        // storing), and the FTL survives across runs on the same device.
        let mut obs: Option<ObsState> = if self.cfg.obs {
            self.ssd.enable_ftl(FtlConfig::default());
            let ftl0 = self.ssd.ftl_stats().unwrap_or_default();
            let cache0 = self.ssd.cache().map(|c| c.snapshot()).unwrap_or_default();
            Some(ObsState {
                ring: TraceRing::new(TRACE_RING_CAP),
                run_base: self.ssd.stats().snapshot(),
                ml_base: MultiLogStats::default(),
                el_base: EdgeLogStats::default(),
                ftl_base: ftl0,
                ftl_run_base: ftl0,
                cache_run_base: cache0.clone(),
                cache_base: cache0,
            })
        } else {
            None
        };

        let mut multilog = MultiLog::new(
            Arc::clone(&self.ssd),
            intervals.clone(),
            MultiLogConfig {
                buffer_bytes: self.cfg.multilog_budget(),
                // Folding is a property of the on-device log layout, so it
                // tracks the knob alone — the I/O-visible page stream stays
                // identical across the pipeline toggle (DESIGN.md §16).
                fold_scatter: self.cfg.fold_scatter,
                // The record shape follows the program, nothing else.
                reads_src: prog.reads_src(),
            },
            &self.cfg.tag,
        )?;
        // Adaptive memory tiering (DESIGN.md §18), drive-entry reset: drop
        // any pins an abandoned drive left behind so cache state and
        // bookkeeping start in lockstep, then arm append retention with
        // half the pin budget across both log sides — nothing is pinned
        // yet, so the seed messages and the first superstep's log tail can
        // be retained without overdrawing the ledger. Every superstep
        // boundary below re-arms against what the topology ranking leaves
        // unspent.
        if self.cfg.tiering.pin_budget_bytes > 0 {
            if let Some(c) = self.ssd.cache() {
                for i in 0..intervals.num_intervals() {
                    c.unpin_file(self.graph.rowptr_file(i as IntervalId));
                    c.unpin_file(self.graph.colidx_file(i as IntervalId));
                }
                for f in multilog.all_log_files() {
                    c.unpin_file(f);
                }
                self.ssd.arm_append_retention(
                    &multilog.all_log_files(),
                    self.cfg.tiering.pin_budget_bytes as u64 / 2,
                );
            } else {
                self.ssd.disarm_append_retention();
            }
        } else {
            self.ssd.disarm_append_retention();
        }
        let mut sortgroup = SortGroup::new(self.cfg.sort_budget());
        // The reference mode measures the comparison sort the pre-pipeline
        // engine ran (both sorts are stable by dest, so results match).
        sortgroup.set_reference_sort(!self.cfg.pipeline);
        // The counting-sort + concatenation read side of sort-folding is a
        // wall-time strategy only (results are bit-identical either way);
        // the baseline keeps measuring the old comparison sort.
        sortgroup.set_fold_merge(self.cfg.pipeline && self.cfg.fold_scatter);
        let mut edgelog = EdgeLogOptimizer::new(
            Arc::clone(&self.ssd),
            n,
            EdgeLogConfig {
                buffer_bytes: self.cfg.edgelog_budget(),
                ..Default::default()
            },
            &self.cfg.tag,
        )?;
        let mut loader = GraphLoader::new();
        let mut structural =
            StructuralUpdateBuffer::new(intervals.clone(), self.cfg.structural_merge_threshold);

        let mut ckpt_mgr = match self.cfg.checkpoint_every {
            Some(_) => Some(CheckpointManager::open(&self.ssd, &self.cfg.tag)?),
            None => None,
        };

        // Seeding (superstep 0): initial messages go through the multi-log
        // exactly like any other update. A resumed run restores the
        // checkpoint instead: vertex states, self-active set, and the
        // pending log pages of the checkpointed superstep (the edge log
        // restarts cold — a pure cache, results are unaffected).
        let mut all_active = false;
        let mut self_active: Vec<VertexId> = Vec::new();
        let start;
        let mut pending: Vec<u64> = match resume {
            Some(cp) => {
                self.states = cp.states.clone();
                all_active = cp.all_active;
                self_active = cp.vertices_from_bits();
                start = cp.superstep as usize + 1;
                multilog.restore_pending(&cp.msgs)?
            }
            // Incremental re-convergence (DESIGN.md §17): keep the current
            // states — they are already a fixpoint of the pre-merge graph —
            // and deliver the delta's seed messages in superstep 1.
            None => match reseed {
                Some(seeds) => {
                    start = 1;
                    for u in seeds {
                        multilog.send(u)?;
                    }
                    multilog.finish_superstep()?
                }
                None => {
                    self.states = (0..n as VertexId).map(|v| prog.init_state(v)).collect();
                    start = 1;
                    match prog.init_active(n) {
                        InitActive::All => {
                            all_active = true;
                            vec![0; intervals.num_intervals()]
                        }
                        InitActive::Seeds(seeds) => {
                            for u in seeds {
                                multilog.send(u)?;
                            }
                            multilog.finish_superstep()?
                        }
                    }
                }
            },
        };

        // Seed-phase trace record (superstep 0): the initial activations
        // logged above — or a resumed checkpoint's restored pending pages —
        // are I/O too, so the trace accounts for every device operation of
        // the run (`tests/io_accounting.rs` pins the sum).
        if let Some(ob) = obs.as_mut() {
            let io = self.ssd.stats().snapshot().since(&ob.run_base);
            let ml = multilog.stats();
            let ftl = self.ssd.ftl_stats().unwrap_or_default();
            let cs = self.ssd.cache().map(|c| c.snapshot()).unwrap_or_default();
            let (ct, cb) = (cs.tenant(self.ssd.tenant()), ob.cache_base.tenant(self.ssd.tenant()));
            ob.ring.push(TraceRecord {
                superstep: 0,
                cache_hits: ct.hits - cb.hits,
                cache_misses: ct.misses - cb.misses,
                cache_evictions: cs.evictions - ob.cache_base.evictions,
                pinned_pages: cs.pinned_pages as u64,
                pinned_hits: cs.pinned_hits - ob.cache_base.pinned_hits,
                messages_sent: pending.iter().sum(),
                pages_read: io.pages_read,
                pages_written: io.pages_written,
                bytes_read: io.bytes_read,
                useful_bytes_read: io.useful_bytes_read,
                bytes_written: io.bytes_written,
                log_bytes_appended: ml.bytes_appended,
                log_pages_flushed: ml.pages_flushed,
                log_evictions: ml.evictions,
                ftl_host_writes: ftl.host_writes - ob.ftl_base.host_writes,
                ftl_physical_writes: ftl.physical_writes - ob.ftl_base.physical_writes,
                ftl_erases: ftl.erases - ob.ftl_base.erases,
                ftl_gc_relocations: ftl.gc_relocations - ob.ftl_base.gc_relocations,
                sim_time_ns: io.io_time_ns(),
                ..Default::default()
            });
            ob.ml_base = ml;
            ob.ftl_base = ftl;
            ob.cache_base = cs;
        }

        // Hoisted out of the hot loops: per-interval column-index file ids,
        // the reusable combine buffer, and field borrows (so the superstep
        // scope below splits `self` cleanly across its closures).
        let num_iv = intervals.num_intervals();
        let colidx_files: Vec<_> = (0..num_iv)
            .map(|i| self.graph.colidx_file(i as IntervalId))
            .collect();
        let mut combined_storage: Vec<Option<Update>> = Vec::new();
        let states = &mut self.states;
        let states_audit = &self.states_audit;
        let cfg = &self.cfg;
        let graph = &self.graph;

        // Hot-interval pinning state (DESIGN.md §18): per-interval topology
        // heat accumulated from the loader's page-usage reports, re-ranked
        // at every superstep boundary into a pinned set under the byte
        // budget. Any pins left by an abandoned drive (mutation restart)
        // are cleared here so bookkeeping and cache state start in
        // lockstep — every drive ranks from scratch.
        let cache = self.ssd.cache();
        let pinning = cache.is_some() && cfg.tiering.pin_budget_bytes > 0;
        let mut heat: Vec<u64> = vec![0; num_iv];
        let mut pinned_ivs: Vec<bool> = vec![false; num_iv];
        let colidx_iv: std::collections::HashMap<FileId, usize> =
            colidx_files.iter().enumerate().map(|(i, &f)| (f, i)).collect();
        // Bytes of pin budget handed to log-tail retention by the last
        // arming (the drive-entry arm above, then each retier below); the
        // difference against the device's unspent counter is the retained
        // tail still pinned, which the next topology ranking must leave
        // room for.
        let mut log_armed: u64 = if pinning {
            cfg.tiering.pin_budget_bytes as u64 / 2
        } else {
            0
        };

        for superstep in start..=max_supersteps {
            if !all_active && pending.iter().all(|&c| c == 0) && self_active.is_empty() {
                report.converged = true;
                break;
            }
            let wall0 = Instant::now();
            let io0 = self.ssd.stats().snapshot();
            let mut st = SuperstepStats { superstep, ..Default::default() };
            let mut active_bits = BitSet::new(n);
            let mut next_self_active: Vec<VertexId> = Vec::new();

            let plan = sortgroup.plan(&pending);
            // Shared-nothing handle on this superstep's inbox (the read
            // side), so a prefetch thread can load fused batch k+1 while
            // batch k is processed and its updates are scattered into the
            // write side. Prefetch is off in the asynchronous model, where
            // the current superstep's own log feeds back into later
            // batches (DESIGN.md §12).
            let reader = multilog.reader();
            let prefetch = cfg.pipeline && !cfg.async_mode;
            // Submission/completion queue for the batch reads (DESIGN.md
            // §16). Every clock-touching operation (submit, complete,
            // advance) runs on the owner thread in plan order, so the
            // simulated timeline — and with it every trace field — is
            // identical at any worker-thread count.
            let ioq = IoQueue::new(Arc::clone(&self.ssd), cfg.queue_depth);
            // Shadow cells auditing the batch handoffs, one per fused
            // batch: the fetch worker writes its cell after decoding, the
            // owner reads it after joining the handle — the join edge is
            // what makes the handoff race-free, and removing it would trip
            // the detector here (DESIGN.md §14). Sibling workers have no
            // happens-before edge between them, hence one cell per batch.
            let handoffs: Vec<mlvc_par::Tracked<()>> = plan
                .iter()
                .map(|_| mlvc_par::Tracked::new("engine batch handoff", ()))
                .collect();
            mlvc_par::scope(|scope| -> Result<(), DeviceError> {
                let sg = &sortgroup;
                let rd = &reader;
                let ioq = &ioq;
                let handoffs = &handoffs[..];
                let mut inflight: std::collections::VecDeque<(
                    mlvc_ssd::Ticket,
                    mlvc_par::ScopedJoinHandle<'_, Result<FusedBatch, DeviceError>>,
                )> = std::collections::VecDeque::new();
                let mut submitted = 0usize;
                for (bi, range) in plan.iter().enumerate() {
                    // 1. Load + in-memory sort of the fused interval logs.
                    //    The owner keeps up to K batch reads on the queue
                    //    (planned + submitted here, in plan order); scoped
                    //    workers fetch the pages and decode + sort them.
                    //    Completions drain strictly in plan order, so
                    //    results are bit-identical at any K or depth.
                    if prefetch {
                        while submitted < plan.len()
                            && submitted < bi + cfg.inflight_batches
                        {
                            let bplan = rd.plan_reads(plan[submitted].clone())?;
                            let ticket = ioq.submit_read(bplan.reqs.clone());
                            let ho = &handoffs[submitted];
                            inflight.push_back((
                                ticket,
                                scope.spawn(move || {
                                    let pages = ioq.fetch(ticket)?;
                                    let b = sg.load_batch_prefetched(rd, &bplan, &pages);
                                    ho.audit_write();
                                    b
                                }),
                            ));
                            submitted += 1;
                        }
                    }
                    let batch = match inflight.pop_front() {
                        Some((ticket, h)) => {
                            let b = match h.join() {
                                Ok(b) => {
                                    handoffs[bi].audit_read();
                                    b?
                                }
                                Err(p) => std::panic::resume_unwind(p),
                            };
                            // Retire the ticket on the owner clock: any
                            // residual service time the overlap could not
                            // hide is charged here.
                            ioq.complete(ticket);
                            b
                        }
                        // Non-pipelined / asynchronous path: load inline
                        // (the async model feeds the current superstep's
                        // own log back into later batches, so reads must
                        // stay behind the scatter of earlier batches).
                        None => sg.load_batch(rd, range.clone())?,
                    };
                    let compute0 = (
                        st.messages_processed,
                        st.messages_delivered,
                        st.edges_scanned,
                    );
                    st.load_ns += batch.load_ns;
                    st.sort_ns += batch.sort_ns;
                    st.messages_processed += batch.updates.len() as u64;

                    for i in range.clone() {
                        let iv_range = intervals.range(i);
                        // This interval's inbox: the contiguous dest range
                        // of the sorted batch, borrowed in place, plus — in
                        // the asynchronous model — whatever the current
                        // superstep already logged for it.
                        let lo = batch.updates.partition_point(|u| u.dest < iv_range.start);
                        let hi = batch.updates.partition_point(|u| u.dest < iv_range.end);
                        let merged: Vec<Update>;
                        let inbox: &[Update] = if !cfg.pipeline {
                            // Reference path (`bench_engine` baseline): the
                            // pre-pipeline engine copied every interval's
                            // inbox out of the batch, and in async mode
                            // re-sorted the whole copy.
                            let mut updates: Vec<Update> =
                                batch.updates[lo..hi].to_vec();
                            if cfg.async_mode {
                                let extra = multilog.take_log_current(i)?;
                                if !extra.is_empty() {
                                    st.messages_processed += extra.len() as u64;
                                    updates.extend(extra);
                                    updates.sort_by_key(|u| u.dest);
                                }
                            }
                            merged = updates;
                            &merged
                        } else if cfg.async_mode {
                            let mut extra = multilog.take_log_current(i)?;
                            if extra.is_empty() {
                                &batch.updates[lo..hi]
                            } else {
                                st.messages_processed += extra.len() as u64;
                                // `extra` is in log order; a stable sort of
                                // the small run plus a two-run merge
                                // reproduces the old whole-inbox re-sort
                                // exactly.
                                extra.sort_by_key(|u| u.dest);
                                merged = merge_by_dest(&batch.updates[lo..hi], &extra);
                                &merged
                            }
                        } else {
                            &batch.updates[lo..hi]
                        };
                        let mut groups: Vec<(VertexId, Range<usize>)> = Vec::new();
                        {
                            let mut offset = 0usize;
                            for (dest, g) in group_by_dest(inbox) {
                                groups.push((dest, offset..offset + g.len()));
                                offset += g.len();
                            }
                        }
                        let actives = Self::actives_for_interval(
                            &groups,
                            &self_active,
                            iv_range,
                            all_active,
                        );
                        if actives.is_empty() {
                            continue;
                        }

                        // 2. Split adjacency sources: edge log vs CSR pages.
                        let use_elog = cfg.enable_edge_log && !needs_weights;
                        let mut elog_vs: Vec<VertexId> = Vec::new();
                        let mut csr_vs: Vec<VertexId> = Vec::new();
                        for (v, _) in &actives {
                            if use_elog && edgelog.contains(*v) {
                                elog_vs.push(*v);
                            } else {
                                csr_vs.push(*v);
                            }
                        }
                        st.edge_log_hits += elog_vs.len() as u64;

                        let loaded = loader.load_active(
                            graph,
                            i,
                            &csr_vs,
                            needs_weights,
                            Some(&structural),
                        )?;
                        let mut elog_adj = edgelog.fetch(&elog_vs)?;
                        for (v, edges) in &mut elog_adj {
                            structural.patch_adjacency(*v, edges);
                        }

                        // 3. Assemble work items in vertex order — borrows
                        //    only, no adjacency clones or message copies.
                        //    The reference path allocates its combiner
                        //    scratch per interval, as the pre-pipeline
                        //    engine did; the pipelined path reuses one
                        //    hoisted buffer.
                        let mut fresh_storage: Vec<Option<Update>>;
                        let combined_storage: &mut Vec<Option<Update>> =
                            if cfg.pipeline {
                                &mut combined_storage
                            } else {
                                fresh_storage = Vec::new();
                                &mut fresh_storage
                            };
                        combined_storage.clear();
                        combined_storage.extend(actives.iter().map(|(v, r)| {
                            combine.and_then(|f| {
                                inbox[r.clone()]
                                    .iter()
                                    .map(|u| u.data)
                                    .reduce(f)
                                    .map(|data| Update::new(*v, VertexId::MAX, data))
                            })
                        }));
                        let mut items: Vec<WorkItem> = Vec::with_capacity(actives.len());
                        let mut li = 0usize;
                        let mut ei = 0usize;
                        for (k, (v, r)) in actives.iter().enumerate() {
                            let (edges, weights, csr_pages) =
                                if li < loaded.len() && loaded[li].v == *v {
                                    let lv = &loaded[li];
                                    li += 1;
                                    let span = (lv.page_lo <= lv.page_hi)
                                        .then_some((lv.page_lo, lv.page_hi));
                                    (lv.edges.as_slice(), lv.weights.as_deref(), span)
                                } else {
                                    debug_assert_eq!(elog_adj[ei].0, *v);
                                    ei += 1;
                                    (elog_adj[ei - 1].1.as_slice(), None, None)
                                };
                            st.edges_scanned += edges.len() as u64;
                            let msgs: &[Update] = match &combined_storage[k] {
                                Some(u) => std::slice::from_ref(u),
                                None => &inbox[r.clone()],
                            };
                            st.messages_delivered += msgs.len() as u64;
                            items.push(WorkItem { v: *v, msgs, edges, weights, csr_pages });
                        }
                        // Reference path: the pre-pipeline engine cloned
                        // every item's adjacency (and weights) out of the
                        // loader; zero-copy items are part of the pipelined
                        // dataflow, so the baseline pays the old copies.
                        let owned_adj: Vec<(Vec<VertexId>, Option<Vec<f32>>)>;
                        let items: Vec<WorkItem> = if cfg.pipeline {
                            items
                        } else {
                            owned_adj = items
                                .iter()
                                .map(|it| {
                                    (it.edges.to_vec(), it.weights.map(<[f32]>::to_vec))
                                })
                                .collect();
                            items
                                .iter()
                                .zip(&owned_adj)
                                .map(|(it, (e, w))| WorkItem {
                                    v: it.v,
                                    msgs: it.msgs,
                                    edges: e,
                                    weights: w.as_deref(),
                                    csr_pages: it.csr_pages,
                                })
                                .collect()
                        };

                        // 4. Parallel vertex processing.
                        let t_proc = Instant::now();
                        let frozen: &[u64] = states;
                        let seed = cfg.seed;
                        let fork = items.len() >= FORK_MIN_ITEMS;
                        let process = |item: &WorkItem| {
                            states_audit.audit_read();
                            let mut ctx = VertexCtx::new(
                                item.v,
                                superstep,
                                n,
                                frozen[item.v as usize],
                                item.msgs,
                                item.edges,
                                item.weights,
                                seed,
                            );
                            prog.process(&mut ctx);
                            ctx.into_outputs()
                        };
                        let outputs: Vec<_> = if fork {
                            mlvc_par::par_map(&items, process)
                        } else {
                            items.iter().map(process).collect()
                        };
                        st.process_ns += t_proc.elapsed().as_nanos() as u64;

                        // 5a. Update scatter. Parallel workers partition
                        //     each output chunk's sends by destination
                        //     interval; draining interval-major, chunk
                        //     order within an interval, appends every
                        //     interval's messages in item-index order —
                        //     exactly what the serial per-update loop
                        //     produced, so log pages stay bit-identical
                        //     for any thread count (DESIGN.md §12).
                        let t_scatter = Instant::now();
                        if cfg.pipeline {
                            let route = |chunk: &[VertexOutputs]| {
                                let mut bufs: Vec<Vec<Update>> = vec![Vec::new(); num_iv];
                                for out in chunk {
                                    for &u in &out.sends {
                                        bufs[intervals.interval_of(u.dest) as usize].push(u);
                                    }
                                }
                                bufs
                            };
                            let scattered: Vec<Vec<Vec<Update>>> = if fork {
                                mlvc_par::par_chunk_map(&outputs, route)
                            } else {
                                vec![route(&outputs)]
                            };
                            for j in 0..num_iv {
                                for bufs in &scattered {
                                    multilog.send_batch(j as IntervalId, &bufs[j])?;
                                }
                            }
                        } else {
                            // Pre-pipeline serial reference path (the
                            // `bench_engine` baseline).
                            for out in &outputs {
                                for &u in &out.sends {
                                    multilog.send(u)?;
                                }
                            }
                        }
                        st.scatter_ns += t_scatter.elapsed().as_nanos() as u64;

                        // 5b. Apply outputs: state, activity, mutations,
                        //     edge-log staging. `dest_seen` reflects every
                        //     send of this interval's items (the scatter
                        //     above ran first) — a whole-item activity
                        //     signal instead of the old per-item prefix,
                        //     affecting edge-log I/O only, never results.
                        let colidx_file = if cfg.pipeline {
                            colidx_files[i as usize]
                        } else {
                            // Reference path: per-interval lookup, as the
                            // pre-pipeline engine did.
                            graph.colidx_file(i)
                        };
                        states_audit.audit_write();
                        for (item, out) in items.iter().zip(outputs) {
                            states[item.v as usize] = out.state;
                            active_bits.set(item.v as usize);
                            st.active_vertices += 1;
                            if out.keep_active {
                                next_self_active.push(item.v);
                            }
                            for su in out.structural {
                                structural.push(su);
                            }
                            if use_elog {
                                let known = multilog.dest_seen(item.v);
                                match item.csr_pages {
                                    Some((plo, phi)) => {
                                        if edgelog.should_log(
                                            item.v,
                                            item.edges.len(),
                                            known,
                                            colidx_file,
                                            plo..=phi,
                                        ) {
                                            edgelog.log_edges(item.v, item.edges)?;
                                        }
                                    }
                                    None => {
                                        // Served from the edge log: keep
                                        // the dense copy alive while the
                                        // vertex stays active.
                                        if known || edgelog.predicted_active(item.v) {
                                            edgelog.log_edges(item.v, item.edges)?;
                                        }
                                    }
                                }
                            }
                        }
                    }
                    // Advance the queue clock by this batch's simulated
                    // compute time, so the service of batches already
                    // submitted overlaps it — the overlap the paper's
                    // async model buys (§V-F). The deltas sum exactly to
                    // `st.compute_ns` over the superstep.
                    if prefetch {
                        ioq.advance(
                            (st.messages_processed - compute0.0) * cfg.cost.sort_ns
                                + (st.messages_delivered - compute0.1)
                                    * cfg.cost.msg_process_ns
                                + (st.edges_scanned - compute0.2) * cfg.cost.edge_scan_ns,
                        );
                    }
                }
                Ok(())
            })?;

            // 6. Superstep close-out.
            let usage = loader.take_page_usage(self.ssd.page_size());
            st.colidx_pages_accessed = usage.len() as u64;
            st.colidx_pages_inefficient = usage
                .iter()
                .filter(|u| {
                    u.useful_bytes > 0
                        && u.utilization() < edgelog.config().inefficiency_threshold
                })
                .count() as u64;
            // Topology heat: one unit per column-index page the loader
            // actually touched, attributed to the page's interval. Pure
            // plan-order data, so the ranking — and with it the pinned
            // set — is identical for any thread count.
            if pinning {
                for u in &usage {
                    if let Some(&iv) = colidx_iv.get(&u.file) {
                        heat[iv] += 1;
                    }
                }
            }
            edgelog.end_superstep(&active_bits, &usage)?;

            // Mutation merge (DESIGN.md §17): any edge batch pending on the
            // attached mutation log lands here, at the superstep boundary —
            // after this superstep's processing read its adjacency, before
            // the log sides flip. The program's reconverge policy decides
            // what happens to the in-flight computation: `Seed` injects the
            // delta's messages into the next superstep's inbox; `Restart`
            // abandons this run so the caller recomputes from scratch on
            // the mutated graph. Merge I/O is charged to this superstep.
            let mut merge_restart = false;
            if let Some(mlog) = self.mutations.as_ref() {
                let merged = {
                    let mut guard = mlog.lock();
                    if guard.pending() == 0 {
                        None
                    } else {
                        Some(
                            guard
                                .merge(graph, cfg.queue_depth)
                                .map_err(mlvc_mutate::MutationError::into_device_error)?,
                        )
                    }
                };
                if let Some(outcome) = merged {
                    st.mutations = outcome.stats;
                    report
                        .mutations
                        .get_or_insert_with(Default::default)
                        .absorb(&outcome.stats);
                    // The edge log caches pre-merge adjacency; drop every
                    // vertex whose out-edges just changed.
                    edgelog.invalidate(&outcome.delta.dirty);
                    // The merge rewrote the dirty intervals' CSR files —
                    // the device already dropped their pinned copies, so
                    // unmark them here and let the retier below re-pin
                    // whatever still ranks into the budget.
                    if pinning {
                        for &v in &outcome.delta.dirty {
                            let iv = intervals.interval_of(v) as usize;
                            if let Some(p) = pinned_ivs.get_mut(iv) {
                                *p = false;
                            }
                        }
                    }
                    match prog.reconverge(states, &outcome.delta) {
                        Reconverge::Restart => merge_restart = true,
                        Reconverge::Seed(seeds) => {
                            for u in seeds {
                                multilog.send(u)?;
                            }
                        }
                    }
                }
            }

            pending = multilog.finish_superstep()?;
            st.messages_sent = pending.iter().sum();
            // Structural merges rewrite their intervals' CSR files too —
            // snapshot which intervals will cross the threshold and unmark
            // their pins before the rewrite drops them.
            if pinning {
                for (i, p) in pinned_ivs.iter_mut().enumerate() {
                    if structural.pending_for(i as IntervalId).len()
                        >= cfg.structural_merge_threshold
                    {
                        *p = false;
                    }
                }
            }
            structural.merge_over_threshold(&self.graph)?;

            // Re-rank the pinned set against the accumulated heat. Skipped
            // on a restart superstep — the next drive clears and re-ranks
            // from scratch anyway, so pin fills here would be wasted I/O.
            if pinning && !merge_restart {
                if let Some(c) = cache.as_deref() {
                    // The tail retained during this superstep is consumed
                    // (and its pins dropped) during the next one, so the
                    // topology ranking only gets what it leaves free —
                    // pinned bytes never exceed the configured budget.
                    let retained = log_armed
                        .saturating_sub(self.ssd.append_retention_unspent().unwrap_or(0));
                    let unspent = retier_pins(
                        c,
                        graph,
                        &self.ssd,
                        &heat,
                        &mut pinned_ivs,
                        (cfg.tiering.pin_budget_bytes as u64).saturating_sub(retained),
                    )?;
                    // Log-tail retention (DESIGN.md §18): the next
                    // superstep's appends are write-allocated into the
                    // pinned tier up to everything the ranking left
                    // unspent. `unspent` already excludes this superstep's
                    // still-draining tail and the pinned topology, so even
                    // at the worst instant — tail undrained, new side full
                    // — pinned bytes total exactly the budget. Appends are
                    // plan-order deterministic, so the retained set — and
                    // with it every cache counter — is identical for any
                    // thread count or queue depth.
                    self.ssd
                        .arm_append_retention(&multilog.write_side_files(), unspent);
                    log_armed = unspent;
                }
            }
            next_self_active.sort_unstable();
            next_self_active.dedup();
            self_active = next_self_active;
            all_active = false;

            // Crash-consistency checkpoint (DESIGN.md §11): captured after
            // the log sides flipped, so the snapshot is exactly the pending
            // input of superstep+1. Charged to this superstep's I/O.
            if let Some(mgr) = ckpt_mgr.as_mut() {
                if self
                    .cfg
                    .checkpoint_every
                    .is_some_and(|k| superstep % k == 0)
                {
                    let cp = CheckpointState {
                        superstep: superstep as u64,
                        all_active,
                        states: states.clone(),
                        active_bits: CheckpointState::bits_from_vertices(n, &self_active),
                        msgs: multilog.snapshot_pending()?,
                    };
                    mgr.write(&cp)?;
                    st.checkpointed = true;
                }
            }

            let qw = ioq.take_wait_stats();
            st.io_wait_ns = qw.io_wait_ns;
            st.max_inflight = qw.max_inflight;
            st.io = self.ssd.stats().snapshot().since(&io0);
            st.compute_ns = st.messages_processed * self.cfg.cost.sort_ns
                + st.messages_delivered * self.cfg.cost.msg_process_ns
                + st.edges_scanned * self.cfg.cost.edge_scan_ns;
            st.wall_ns = wall0.elapsed().as_nanos() as u64;

            // Per-superstep trace record: only counts, cost-model times,
            // and per-step deltas of the unit stats — every field is
            // thread-count invariant (DESIGN.md §13), unlike the wall-clock
            // stage timings which stay out of the trace.
            if let Some(ob) = obs.as_mut() {
                let ml = multilog.stats();
                let el = edgelog.stats();
                let ftl = self.ssd.ftl_stats().unwrap_or_default();
                let cs = self.ssd.cache().map(|c| c.snapshot()).unwrap_or_default();
                let (ct, cb) =
                    (cs.tenant(self.ssd.tenant()), ob.cache_base.tenant(self.ssd.tenant()));
                let rec = TraceRecord {
                    superstep: superstep as u64,
                    active_vertices: st.active_vertices,
                    messages_processed: st.messages_processed,
                    messages_delivered: st.messages_delivered,
                    messages_sent: st.messages_sent,
                    edges_scanned: st.edges_scanned,
                    fused_batches: plan.len() as u64,
                    pages_read: st.io.pages_read,
                    pages_written: st.io.pages_written,
                    bytes_read: st.io.bytes_read,
                    useful_bytes_read: st.io.useful_bytes_read,
                    bytes_written: st.io.bytes_written,
                    log_bytes_appended: ml.bytes_appended - ob.ml_base.bytes_appended,
                    log_pages_flushed: ml.pages_flushed - ob.ml_base.pages_flushed,
                    log_evictions: ml.evictions - ob.ml_base.evictions,
                    edge_log_vertices: el.vertices_logged - ob.el_base.vertices_logged,
                    edge_log_pages: el.pages_written - ob.el_base.pages_written,
                    edge_log_hits: st.edge_log_hits,
                    ftl_host_writes: ftl.host_writes - ob.ftl_base.host_writes,
                    ftl_physical_writes: ftl.physical_writes - ob.ftl_base.physical_writes,
                    ftl_erases: ftl.erases - ob.ftl_base.erases,
                    ftl_gc_relocations: ftl.gc_relocations - ob.ftl_base.gc_relocations,
                    sim_time_ns: st.sim_time_ns(),
                    io_wait_ns: st.io_wait_ns,
                    max_inflight: st.max_inflight,
                    mut_edges_merged: st.mutations.edges_added + st.mutations.edges_removed,
                    mut_intervals_merged: st.mutations.intervals_merged,
                    mut_dirty_vertices: st.mutations.dirty_vertices,
                    cache_hits: ct.hits - cb.hits,
                    cache_misses: ct.misses - cb.misses,
                    cache_evictions: cs.evictions - ob.cache_base.evictions,
                    pinned_pages: cs.pinned_pages as u64,
                    pinned_hits: cs.pinned_hits - ob.cache_base.pinned_hits,
                };
                ob.ml_base = ml;
                ob.el_base = el;
                ob.ftl_base = ftl;
                ob.cache_base = cs;
                ob.ring.push(rec);
                st.metrics = Some(rec);
            }
            report.supersteps.push(st);
            if merge_restart {
                // Flush sub-threshold structural updates before abandoning
                // the run — the restart rebuilds every unit from scratch.
                structural.merge_all(&self.graph)?;
                return Ok(DriveEnd::Restart);
            }
        }
        if !report.converged
            && pending.iter().all(|&c| c == 0)
            && self_active.is_empty()
            && !all_active
        {
            report.converged = true;
        }

        structural.merge_all(&self.graph)?;
        self.ssd.disarm_append_retention();
        report.multilog = Some(multilog.stats());
        report.edgelog = Some(edgelog.stats());
        if let Some(ob) = obs {
            report.trace = ob.ring.records();
            report.obs = Some(self.obs_snapshot(&ob, &multilog, &edgelog, report));
        }
        Ok(DriveEnd::Completed)
    }

    /// End-of-run metrics registry snapshot: the `mlvc_ssd_*` counters are
    /// the device's own stats delta over this run — bit-exact equality with
    /// `Ssd::stats` is the contract `tests/io_accounting.rs` pins.
    fn obs_snapshot(
        &self,
        ob: &ObsState,
        multilog: &MultiLog,
        edgelog: &EdgeLogOptimizer,
        report: &RunReport,
    ) -> mlvc_obs::MetricsSnapshot {
        let reg = Registry::new();
        let io = self.ssd.stats().snapshot().since(&ob.run_base);
        reg.counter("mlvc_ssd_pages_read_total").add(io.pages_read);
        reg.counter("mlvc_ssd_pages_written_total").add(io.pages_written);
        reg.counter("mlvc_ssd_bytes_read_total").add(io.bytes_read);
        reg.counter("mlvc_ssd_bytes_written_total").add(io.bytes_written);
        reg.counter("mlvc_ssd_useful_bytes_read_total").add(io.useful_bytes_read);
        reg.counter("mlvc_ssd_read_batches_total").add(io.read_batches);
        reg.counter("mlvc_ssd_write_batches_total").add(io.write_batches);
        reg.counter("mlvc_ssd_read_time_ns_total").add(io.read_time_ns);
        reg.counter("mlvc_ssd_write_time_ns_total").add(io.write_time_ns);

        let ml = multilog.stats();
        reg.counter("mlvc_log_updates_logged_total").add(ml.updates_logged);
        reg.counter("mlvc_log_updates_read_total").add(ml.updates_read);
        reg.counter("mlvc_log_pages_flushed_total").add(ml.pages_flushed);
        reg.counter("mlvc_log_evictions_total").add(ml.evictions);
        reg.counter("mlvc_log_bytes_appended_total").add(ml.bytes_appended);

        let el = edgelog.stats();
        reg.counter("mlvc_edgelog_vertices_logged_total").add(el.vertices_logged);
        reg.counter("mlvc_edgelog_pages_written_total").add(el.pages_written);
        reg.counter("mlvc_edgelog_hits_total").add(el.hits);

        // Page-cache counters (tiering, DESIGN.md §18): whole-run deltas
        // for this engine's tenant — another tenant sharing the daemon's
        // cache never leaks into this run's series.
        if let Some(c) = self.ssd.cache() {
            let cs = c.snapshot();
            let b = &ob.cache_run_base;
            let (ct, bt) = (cs.tenant(self.ssd.tenant()), b.tenant(self.ssd.tenant()));
            reg.counter("mlvc_cache_hits_total").add(ct.hits - bt.hits);
            reg.counter("mlvc_cache_misses_total").add(ct.misses - bt.misses);
            reg.counter("mlvc_cache_bytes_saved_total").add(ct.bytes_saved - bt.bytes_saved);
            reg.counter("mlvc_cache_evictions_total").add(cs.evictions - b.evictions);
            reg.counter("mlvc_cache_pinned_hits_total").add(cs.pinned_hits - b.pinned_hits);
            reg.gauge("mlvc_cache_capacity_pages").set(cs.capacity_pages as u64);
            reg.gauge("mlvc_cache_resident_pages").set(cs.resident_pages as u64);
            reg.gauge("mlvc_cache_pinned_pages").set(cs.pinned_pages as u64);
            reg.gauge("mlvc_cache_pinned_bytes").set(cs.pinned_bytes);
        }

        let ftl = self.ssd.ftl_stats().unwrap_or_default();
        let fb = &ob.ftl_run_base;
        reg.counter("mlvc_ftl_host_writes_total").add(ftl.host_writes - fb.host_writes);
        reg.counter("mlvc_ftl_physical_writes_total")
            .add(ftl.physical_writes - fb.physical_writes);
        reg.counter("mlvc_ftl_erases_total").add(ftl.erases - fb.erases);
        reg.counter("mlvc_ftl_gc_relocations_total")
            .add(ftl.gc_relocations - fb.gc_relocations);

        reg.counter("mlvc_engine_supersteps_total")
            .add(report.supersteps.len() as u64);
        reg.counter("mlvc_engine_messages_processed_total")
            .add(report.supersteps.iter().map(|s| s.messages_processed).sum());
        reg.counter("mlvc_engine_messages_sent_total")
            .add(report.supersteps.iter().map(|s| s.messages_sent).sum());
        reg.counter("mlvc_engine_edges_scanned_total")
            .add(report.supersteps.iter().map(|s| s.edges_scanned).sum());

        reg.gauge("mlvc_engine_converged").set(u64::from(report.converged));
        // Amplification ratios as milli-units (gauges are integral).
        if io.useful_bytes_read > 0 {
            reg.gauge("mlvc_read_amplification_milli")
                .set((io.bytes_read as f64 / io.useful_bytes_read as f64 * 1000.0) as u64);
        }
        let host = ftl.host_writes - fb.host_writes;
        if host > 0 {
            let physical = ftl.physical_writes - fb.physical_writes;
            reg.gauge("mlvc_ftl_write_amplification_milli")
                .set((physical as f64 / host as f64 * 1000.0) as u64);
        }

        let pages_hist = reg.histogram(
            "mlvc_superstep_pages_read",
            &[4, 16, 64, 256, 1024, 4096, 16384],
        );
        let msgs_hist = reg.histogram(
            "mlvc_superstep_messages_sent",
            &[16, 256, 4096, 65536, 1048576],
        );
        for rec in ob.ring.records() {
            pages_hist.observe(rec.pages_read);
            msgs_hist.observe(rec.messages_sent);
        }
        reg.snapshot()
    }
}

/// Adjust the pinned set to the accumulated heat ranking (DESIGN.md §18):
/// greedily fit the hottest intervals' whole topology extents (row-pointer
/// and column-index files) into the byte budget, hotter first, interval id
/// as the deterministic tie-break. Intervals staying pinned are *not* re-pinned
/// (no probe traffic, no counter inflation); ones falling out of the
/// ranking are unpinned; newly ranked ones are pinned, their fills charged
/// through the cache like any other read. Returns the bytes of budget the
/// ranking left unspent — the caller hands those to log-tail retention.
fn retier_pins(
    cache: &PageCache,
    graph: &StoredGraph,
    dev: &Ssd,
    heat: &[u64],
    pinned_ivs: &mut [bool],
    budget_bytes: u64,
) -> Result<u64, DeviceError> {
    let page_bytes = dev.page_size() as u64;
    let mut order: Vec<usize> = (0..heat.len()).filter(|&i| heat[i] > 0).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(heat[i]), i));
    let mut want = vec![false; heat.len()];
    let mut left = budget_bytes;
    for &i in &order {
        let rp = graph.rowptr_file(i as IntervalId);
        let ci = graph.colidx_file(i as IntervalId);
        let bytes = (dev.num_pages(rp)? + dev.num_pages(ci)?) * page_bytes;
        if bytes > 0 && bytes <= left {
            want[i] = true;
            left -= bytes;
        }
    }
    for (i, pinned) in pinned_ivs.iter_mut().enumerate() {
        if want[i] == *pinned {
            continue;
        }
        let rp = graph.rowptr_file(i as IntervalId);
        let ci = graph.colidx_file(i as IntervalId);
        if want[i] {
            cache.pin_file(dev, rp)?;
            cache.pin_file(dev, ci)?;
        } else {
            cache.unpin_file(rp);
            cache.unpin_file(ci);
        }
        *pinned = want[i];
    }
    Ok(left)
}

impl Engine for MultiLogEngine {
    fn name(&self) -> &'static str {
        "MultiLogVC"
    }

    fn states(&self) -> &[u64] {
        &self.states
    }

    fn run(&mut self, prog: &dyn VertexProgram, max_supersteps: usize) -> RunReport {
        let mut report = RunReport::default();
        if let Err(e) = self.run_loop(prog, max_supersteps, None, None, &mut report) {
            report.interrupted = Some(e);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlvc_ssd::SsdConfig;

    /// Flood: every vertex starts active with state 0; a vertex whose state
    /// is smaller than an incoming payload adopts the max and floods it.
    /// Converges to max(vertex id) on every connected component.
    struct Flood;
    impl VertexProgram for Flood {
        fn name(&self) -> &'static str {
            "flood"
        }
        fn init_state(&self, v: VertexId) -> u64 {
            v as u64
        }
        fn init_active(&self, _n: usize) -> InitActive {
            InitActive::All
        }
        fn process(&self, ctx: &mut VertexCtx<'_>) {
            let best = ctx
                .msgs()
                .iter()
                .map(|m| m.data)
                .fold(ctx.state(), u64::max);
            if best > ctx.state() || ctx.superstep() == 1 {
                ctx.set_state(best);
                ctx.send_all(best);
            }
        }
    }

    fn engine_for(csr: mlvc_graph::Csr) -> MultiLogEngine {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let iv = mlvc_graph::VertexIntervals::uniform(csr.num_vertices(), 4);
        let sg = StoredGraph::store_with(&ssd, &csr, "g", iv).unwrap();
        MultiLogEngine::new(ssd, sg, EngineConfig::default())
    }

    fn ring(n: usize) -> mlvc_graph::Csr {
        let mut b = mlvc_graph::EdgeListBuilder::new(n).symmetrize(true);
        for v in 0..n as u32 {
            b.push(v, (v + 1) % n as u32);
        }
        b.build()
    }

    /// The record shape follows `reads_src()` and nothing else: a program
    /// that disclaims the source computes the same states from fewer log
    /// bytes, and sees the sentinel where the source would have been.
    #[test]
    fn reads_src_alone_picks_the_record_shape() {
        struct SrcFree(std::sync::atomic::AtomicBool);
        impl VertexProgram for SrcFree {
            fn name(&self) -> &'static str {
                "flood"
            }
            fn init_state(&self, v: VertexId) -> u64 {
                Flood.init_state(v)
            }
            fn init_active(&self, n: usize) -> InitActive {
                Flood.init_active(n)
            }
            fn process(&self, ctx: &mut VertexCtx<'_>) {
                if ctx.msgs().iter().any(|m| m.src != VertexId::MAX) {
                    self.0.store(true, std::sync::atomic::Ordering::SeqCst);
                }
                Flood.process(ctx)
            }
            fn reads_src(&self) -> bool {
                false
            }
        }
        let (mut with, mut without) = (engine_for(ring(64)), engine_for(ring(64)));
        let kept = with.run(&Flood, 80);
        let saw_src = SrcFree(false.into());
        let dropped = without.run(&saw_src, 80);
        assert!(kept.converged && dropped.converged);
        assert_eq!(with.states(), without.states());
        assert!(!saw_src.0.into_inner(), "a source reached a program that disclaimed it");
        let (kept, dropped) = (kept.multilog.unwrap(), dropped.multilog.unwrap());
        assert_eq!(kept.updates_logged, dropped.updates_logged);
        assert!(dropped.bytes_appended < kept.bytes_appended);
    }

    #[test]
    fn flood_converges_to_component_max() {
        let mut eng = engine_for(ring(32));
        let report = eng.run(&Flood, 40);
        assert!(report.converged, "flood must converge within the cap");
        for v in 0..32u32 {
            assert_eq!(eng.state_of(v), 31, "vertex {v}");
        }
    }

    #[test]
    fn seeded_program_only_touches_reachable_vertices() {
        /// Mark: seed at vertex 0; each marked vertex marks neighbors once.
        struct Mark;
        impl VertexProgram for Mark {
            fn name(&self) -> &'static str {
                "mark"
            }
            fn init_state(&self, _v: VertexId) -> u64 {
                0
            }
            fn init_active(&self, _n: usize) -> InitActive {
                InitActive::Seeds(vec![Update::new(0, 0, 1)])
            }
            fn process(&self, ctx: &mut VertexCtx<'_>) {
                if ctx.state() == 0 {
                    ctx.set_state(1);
                    ctx.send_all(1);
                }
            }
        }
        // Two disjoint rings 0..16 and 16..32.
        let mut b = mlvc_graph::EdgeListBuilder::new(32).symmetrize(true);
        for v in 0..16u32 {
            b.push(v, (v + 1) % 16);
        }
        for v in 16..32u32 {
            b.push(v, 16 + (v + 1 - 16) % 16);
        }
        let mut eng = engine_for(b.build());
        let report = eng.run(&Mark, 40);
        assert!(report.converged);
        for v in 0..16u32 {
            assert_eq!(eng.state_of(v), 1);
        }
        for v in 16..32u32 {
            assert_eq!(eng.state_of(v), 0, "unreachable vertex {v} untouched");
        }
        // Activity shrinks to zero; first superstep processed only the seed.
        assert_eq!(report.supersteps[0].active_vertices, 1);
    }

    #[test]
    fn report_records_io_and_activity() {
        let mut eng = engine_for(ring(32));
        let report = eng.run(&Flood, 40);
        assert_eq!(report.engine, "MultiLogVC");
        assert_eq!(report.app, "flood");
        let s1 = &report.supersteps[0];
        assert_eq!(s1.active_vertices, 32, "all-active first superstep");
        assert!(s1.io.pages_read > 0, "adjacency loads are charged");
        assert!(s1.sim_time_ns() > 0);
        assert!(report.total_messages() > 0);
        // Activity must shrink over supersteps for flood on a ring.
        let last = report.supersteps.last().unwrap();
        assert!(last.active_vertices < s1.active_vertices);
    }

    #[test]
    fn keep_active_processes_vertex_without_messages() {
        /// Countdown: every vertex counts down from 3 using keep_active,
        /// never sending messages.
        struct Countdown;
        impl VertexProgram for Countdown {
            fn name(&self) -> &'static str {
                "countdown"
            }
            fn init_state(&self, _v: VertexId) -> u64 {
                3
            }
            fn init_active(&self, _n: usize) -> InitActive {
                InitActive::All
            }
            fn process(&self, ctx: &mut VertexCtx<'_>) {
                let s = ctx.state() - 1;
                ctx.set_state(s);
                if s > 0 {
                    ctx.keep_active();
                }
            }
        }
        let mut eng = engine_for(ring(8));
        let report = eng.run(&Countdown, 10);
        assert!(report.converged);
        assert_eq!(report.supersteps.len(), 3);
        for v in 0..8u32 {
            assert_eq!(eng.state_of(v), 0);
        }
    }

    #[test]
    fn combine_path_matches_preserved_path() {
        /// MaxAgg: superstep 1 every vertex sends its id to neighbors;
        /// superstep 2 records the max received. Combinable with max.
        struct MaxAgg {
            combinable: bool,
        }
        impl VertexProgram for MaxAgg {
            fn name(&self) -> &'static str {
                "maxagg"
            }
            fn init_state(&self, _v: VertexId) -> u64 {
                0
            }
            fn init_active(&self, _n: usize) -> InitActive {
                InitActive::All
            }
            fn process(&self, ctx: &mut VertexCtx<'_>) {
                if ctx.superstep() == 1 {
                    let id = ctx.vertex() as u64;
                    ctx.send_all(id);
                } else {
                    let best = ctx.msgs().iter().map(|m| m.data).fold(0, u64::max);
                    ctx.set_state(best);
                }
            }
            fn combine(&self) -> Option<crate::Combine> {
                self.combinable.then_some(u64::max as crate::Combine)
            }
        }
        let mut e1 = engine_for(ring(16));
        e1.run(&MaxAgg { combinable: false }, 3);
        let mut e2 = engine_for(ring(16));
        e2.run(&MaxAgg { combinable: true }, 3);
        assert_eq!(e1.states(), e2.states());
        for v in 0..16u32 {
            let expect = std::cmp::max((v + 1) % 16, (v + 15) % 16) as u64;
            assert_eq!(e1.state_of(v), expect, "vertex {v}");
        }
    }

    #[test]
    fn structural_updates_visible_next_superstep() {
        /// Superstep 1: vertex 0 adds an edge to vertex 7 and keeps active;
        /// superstep 2: vertex 0 sends over its (patched) edges; superstep
        /// 3: receivers record.
        struct Grower;
        impl VertexProgram for Grower {
            fn name(&self) -> &'static str {
                "grower"
            }
            fn init_state(&self, _v: VertexId) -> u64 {
                0
            }
            fn init_active(&self, _n: usize) -> InitActive {
                InitActive::Seeds(vec![Update::new(0, 0, 0)])
            }
            fn process(&self, ctx: &mut VertexCtx<'_>) {
                match ctx.superstep() {
                    1 => {
                        ctx.add_edge(7);
                        ctx.keep_active();
                    }
                    2 => ctx.send_all(9),
                    _ => ctx.set_state(ctx.msgs().iter().map(|m| m.data).sum()),
                }
            }
        }
        // Path 0-1 so vertex 0 initially has one neighbor.
        let mut b = mlvc_graph::EdgeListBuilder::new(8).symmetrize(true);
        b.push(0, 1);
        let mut eng = engine_for(b.build());
        eng.run(&Grower, 5);
        assert_eq!(eng.state_of(1), 9);
        assert_eq!(eng.state_of(7), 9, "structurally added edge delivered");
    }

    #[test]
    fn bsp_delivery_holds_under_memory_pressure() {
        /// Every vertex stamps the superstep at which its first message
        /// arrived. On a star, the hub's superstep-1 broadcast must reach
        /// every leaf in superstep 2 — never earlier, even when the tiny
        /// sort budget splits superstep 2 into many fused batches and log
        /// pages flush to the SSD mid-superstep.
        struct Stamp;
        impl VertexProgram for Stamp {
            fn name(&self) -> &'static str {
                "stamp"
            }
            fn init_state(&self, _v: VertexId) -> u64 {
                0
            }
            fn init_active(&self, _n: usize) -> InitActive {
                InitActive::Seeds(vec![Update::new(0, 0, 0)])
            }
            fn process(&self, ctx: &mut VertexCtx<'_>) {
                if ctx.state() == 0 {
                    ctx.set_state(ctx.superstep() as u64);
                    if ctx.vertex() == 0 {
                        ctx.send_all(1);
                    }
                }
            }
        }
        // Star with 512 leaves; 16 intervals; minimal memory so the sort
        // budget fuses only a couple of interval logs per batch and the
        // multilog buffer thrashes.
        let mut b = mlvc_graph::EdgeListBuilder::new(513).symmetrize(true);
        for leaf in 1..513u32 {
            b.push(0, leaf);
        }
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let sg = StoredGraph::store_with(
            &ssd,
            &b.build(),
            "bsp",
            mlvc_graph::VertexIntervals::uniform(513, 16),
        )
        .unwrap();
        let cfg = EngineConfig::default().with_memory(8 << 10);
        let mut eng = MultiLogEngine::new(ssd, sg, cfg);
        eng.run(&Stamp, 5);
        assert_eq!(eng.state_of(0), 1);
        for leaf in 1..513u32 {
            assert_eq!(
                eng.state_of(leaf),
                2,
                "leaf {leaf} must see the broadcast exactly in superstep 2"
            );
        }
    }

    #[test]
    fn async_mode_matches_sync_results_in_fewer_supersteps() {
        /// Min-flood: monotone (min-semilattice), so asynchronous delivery
        /// is safe. On a path the minimum id (vertex 0) propagates in
        /// ascending interval order — the flow the async model accelerates:
        /// the front crosses each of the 7 interval boundaries within a
        /// superstep instead of paying one superstep per crossing.
        struct MinFlood;
        impl VertexProgram for MinFlood {
            fn name(&self) -> &'static str {
                "minflood"
            }
            fn init_state(&self, v: VertexId) -> u64 {
                v as u64
            }
            fn init_active(&self, _n: usize) -> InitActive {
                InitActive::All
            }
            fn process(&self, ctx: &mut VertexCtx<'_>) {
                let best = ctx.msgs().iter().map(|m| m.data).fold(ctx.state(), u64::min);
                if best < ctx.state() || ctx.superstep() == 1 {
                    ctx.set_state(best);
                    ctx.send_all(best);
                }
            }
        }
        let n = 64usize;
        let mut b = mlvc_graph::EdgeListBuilder::new(n).symmetrize(true);
        for v in 1..n as u32 {
            b.push(v - 1, v);
        }
        let csr = b.build();
        let iv = mlvc_graph::VertexIntervals::uniform(n, 8);

        let run = |async_mode: bool| {
            let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
            let sg = StoredGraph::store_with(&ssd, &csr, "a", iv.clone()).unwrap();
            let mut eng = MultiLogEngine::new(
                ssd,
                sg,
                EngineConfig::default().with_async(async_mode),
            );
            let r = eng.run(&MinFlood, 200);
            assert!(r.converged);
            (eng.states().to_vec(), r.supersteps.len())
        };
        let (sync_states, sync_steps) = run(false);
        let (async_states, async_steps) = run(true);
        assert_eq!(sync_states, async_states, "same fixpoint");
        assert!(async_states.iter().all(|&x| x == 0), "min reached everyone");
        // Async saves one superstep per interval boundary the front
        // crosses (intra-interval hops still cost one superstep each).
        assert!(
            sync_steps - async_steps >= 7,
            "async {async_steps} vs sync {sync_steps} supersteps"
        );
    }

    #[test]
    fn memory_pressure_does_not_change_results() {
        // High message volume + many intervals + tiny budget: superstep
        // processing splits into several fused batches and log pages flush
        // mid-superstep. Results must match a run with ample memory, and
        // the multi-log must never read more updates than were logged
        // (the signature of same-superstep log leakage).
        let mut b = mlvc_graph::EdgeListBuilder::new(1024).symmetrize(true).dedup(true);
        for v in 0..1024u32 {
            for k in 1..9u32 {
                b.push(v, (v * 37 + k * 131) % 1024);
            }
        }
        let csr = b.drop_self_loops(true).build();
        let iv = mlvc_graph::VertexIntervals::uniform(1024, 32);

        let run = |mem: usize| {
            let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
            let sg = StoredGraph::store_with(&ssd, &csr, "p", iv.clone()).unwrap();
            let mut eng = MultiLogEngine::new(ssd, sg, EngineConfig::default().with_memory(mem));
            let r = eng.run(&Flood, 40);
            (eng.states().to_vec(), r)
        };
        let (tight_states, tight) = run(16 << 10);
        let (roomy_states, roomy) = run(8 << 20);
        assert_eq!(tight_states, roomy_states, "budget must not affect results");
        assert!(tight.converged && roomy.converged);

        let ml = tight.multilog.unwrap();
        assert!(
            ml.updates_read <= ml.updates_logged,
            "log leakage: read {} of {} logged",
            ml.updates_read,
            ml.updates_logged
        );
        assert!(ml.evictions > 0, "the tight run must actually hit pressure");
        // Identical superstep trajectories: same message counts per step.
        assert_eq!(tight.supersteps.len(), roomy.supersteps.len());
        for (a, b) in tight.supersteps.iter().zip(&roomy.supersteps) {
            assert_eq!(a.messages_processed, b.messages_processed, "superstep {}", a.superstep);
            assert_eq!(a.active_vertices, b.active_vertices);
        }
    }

    #[test]
    fn edge_log_ablation_changes_io_not_results() {
        let csr = ring(64);
        let ssd1 = Arc::new(Ssd::new(SsdConfig::test_small()));
        let g1 = StoredGraph::store_with(
            &ssd1,
            &csr,
            "a",
            mlvc_graph::VertexIntervals::uniform(64, 4),
        )
        .unwrap();
        let mut on = MultiLogEngine::new(ssd1, g1, EngineConfig::default());
        let ron = on.run(&Flood, 80);

        let ssd2 = Arc::new(Ssd::new(SsdConfig::test_small()));
        let g2 = StoredGraph::store_with(
            &ssd2,
            &csr,
            "b",
            mlvc_graph::VertexIntervals::uniform(64, 4),
        )
        .unwrap();
        let mut off =
            MultiLogEngine::new(ssd2, g2, EngineConfig::default().with_edge_log(false));
        let roff = off.run(&Flood, 80);

        assert_eq!(on.states(), off.states(), "ablation must not change results");
        assert_eq!(
            roff.supersteps.iter().map(|s| s.edge_log_hits).sum::<u64>(),
            0
        );
        assert!(ron.converged && roff.converged);
    }

    use crate::TieringConfig;

    fn tiered_engine(csr: &mlvc_graph::Csr, tag: &str, tiering: TieringConfig) -> (Arc<Ssd>, MultiLogEngine) {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let g = StoredGraph::store_with(
            &ssd,
            csr,
            tag,
            mlvc_graph::VertexIntervals::uniform(csr.num_vertices(), 4),
        )
        .unwrap();
        let eng = MultiLogEngine::new(
            Arc::clone(&ssd),
            g,
            EngineConfig::default().with_obs(true).with_tiering(tiering),
        );
        (ssd, eng)
    }

    #[test]
    fn tiering_reduces_device_reads_without_changing_results() {
        let csr = ring(64);
        let (ssd_a, mut plain) = tiered_engine(&csr, "a", TieringConfig::default());
        let io0 = ssd_a.stats().snapshot();
        let ra = plain.run(&Flood, 80);
        let plain_reads = ssd_a.stats().snapshot().since(&io0).pages_read;

        let tiering = TieringConfig {
            cache_bytes: 8 << 10,
            pin_budget_bytes: 4 << 10,
            ..Default::default()
        };
        let (ssd_b, mut tiered) = tiered_engine(&csr, "b", tiering);
        let io0 = ssd_b.stats().snapshot();
        let rb = tiered.run(&Flood, 80);
        let tiered_reads = ssd_b.stats().snapshot().since(&io0).pages_read;

        assert!(ra.converged && rb.converged);
        assert_eq!(plain.states(), tiered.states(), "tiering must not change results");
        assert!(
            tiered_reads < plain_reads,
            "tiering must cut device reads ({tiered_reads} vs {plain_reads})"
        );
        let snap = ssd_b.cache().expect("tiering attaches a cache").snapshot();
        assert!(snap.pinned_pages > 0, "the pin budget must actually pin extents");
        assert!(
            rb.trace.iter().any(|t| t.pinned_pages > 0 && t.pinned_hits > 0),
            "the trace must show pinned pages serving hits"
        );
    }

    #[test]
    fn tiered_traces_are_bit_identical_across_runs() {
        let csr = ring(64);
        let tiering = TieringConfig {
            cache_bytes: 4 << 10,
            pin_budget_bytes: 2 << 10,
            ..Default::default()
        };
        let (_sa, mut a) = tiered_engine(&csr, "t", tiering);
        let ra = a.run(&Flood, 80);
        let (_sb, mut b) = tiered_engine(&csr, "t", tiering);
        let rb = b.run(&Flood, 80);
        assert_eq!(a.states(), b.states());
        assert_eq!(ra.trace, rb.trace, "cache + pin activity must be deterministic");
        assert!(ra.trace.iter().any(|t| t.cache_hits > 0), "the cache must actually hit");
    }
}
