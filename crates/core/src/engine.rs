use std::collections::VecDeque;
use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use mlvc_graph::{
    Adjacency, GraphLoader, IntervalId, RowPtrs, StoredGraph, StructuralUpdateBuffer, VertexId,
};
use mlvc_log::{
    group_by_dest, is_inefficient, plan_fusion, BatchPlan, BitSet, EdgeLogOptimizer, FusedBatch,
    MultiLog, MultiLogConfig, Update,
};
use mlvc_mutate::{validate_range, MutationError, MutationLog};
use mlvc_par::{Scope, ScopedJoinHandle};
use mlvc_recover::{CheckpointManager, CheckpointState};
use mlvc_ssd::sync::Mutex;
use mlvc_ssd::{
    DeviceError, IoQueue, Page, Reads, Ssd, SsdStatsSnapshot, Ticket, Writes, QUEUE_DEPTH,
};

use crate::checkpoint::{identity, load_resume_point, Checkpointer, ResumePoint};
use crate::merge::{merge_pending, STRUCTURAL_MERGE_THRESHOLD};
use crate::tiering::Tiering;
use crate::trace::Tracer;
use crate::{
    compute_ns, Combine, ConfigError, Engine, EngineConfig, InitActive, Reconverge, RunReport,
    SendSink, SuperstepStats, VertexCtx, VertexOutputs, VertexProgram,
};

/// Active vertices an interval must bring before its process stage forks
/// (the scatter drains the sinks on the owner thread and never does). A
/// fork/join spawns scoped threads — tens of microseconds on a quiet
/// machine, several times that on a busy one — which a sparse frontier (a
/// few hundred cheap vertices per interval, once per interval per
/// superstep) never earns back: the stage then costs more than on one
/// thread and its wall time follows the machine's load instead of the
/// work. Results do not depend on the choice (DESIGN.md §12).
const FORK_MIN_ITEMS: usize = 2048;

/// Fused-batch reads the fetch stage keeps in flight on the I/O queue (K):
/// up to K are submitted ahead of the batch being retired, so their service
/// overlaps the compute of the ones before, and a look-ahead worker can
/// decode them meanwhile. Completions drain strictly in plan order, so no
/// result or page count depends on K (DESIGN.md §12).
const INFLIGHT_BATCHES: usize = 4;

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
/// 6. the logs swap sides — what they still buffer is carried into the
///    next superstep in host memory, not written — structural updates past
///    the threshold merge through the mutation commit, statistics are
///    recorded.
pub struct MultiLogEngine {
    ssd: Arc<Ssd>,
    graph: Arc<StoredGraph>,
    cfg: EngineConfig,
    states: Vec<u64>,
    /// Live-ingest mutation log (DESIGN.md §17), shared with whatever is
    /// accepting edge batches (`mlvc ingest`). Pending batches merge
    /// into the stored CSR only in [`Self::reconverge`]; the running
    /// program's own structural updates commit through it, beside them —
    /// when none is attached, the first such merge opens one under the
    /// run's tag and leaves it here.
    mutations: Option<Arc<Mutex<MutationLog>>>,
}

impl MultiLogEngine {
    pub fn new(ssd: Arc<Ssd>, graph: StoredGraph, cfg: EngineConfig) -> Self {
        Self::with_shared_graph(ssd, Arc::new(graph), cfg)
    }

    /// Engine over an already shared stored graph.
    pub fn with_shared_graph(ssd: Arc<Ssd>, graph: Arc<StoredGraph>, cfg: EngineConfig) -> Self {
        let states = vec![0u64; graph.num_vertices()];
        MultiLogEngine { ssd, graph, cfg, states, mutations: None }
    }

    pub fn graph(&self) -> &Arc<StoredGraph> {
        &self.graph
    }

    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Attach a shared mutation log (DESIGN.md §17). Its pending batches
    /// merge when [`Self::reconverge`] is called, and only then: a batch
    /// pending on it while [`Engine::run`] or [`Self::run_recoverable`]
    /// drives stays pending for the next `reconverge`. The log must
    /// partition vertices exactly like the stored graph.
    pub fn attach_mutations(
        &mut self,
        log: Arc<Mutex<MutationLog>>,
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
        let mut report = RunReport { converged: true, ..self.report_for(prog) };
        let Some(mlog) = self.mutations.clone() else {
            return report;
        };
        // Refused before the merge, or it would leave states stale.
        let merged = self.cfg.validate().map_err(DeviceError::from);
        let outcome = match merged.and_then(|()| merge_pending(&mlog, &self.graph)) {
            Ok(None) => return report,
            Ok(Some(outcome)) => outcome,
            Err(e) => {
                report.interrupted = Some(e);
                return report;
            }
        };
        report.mutations = Some(outcome.stats);
        let reseed = match prog.reconverge(&self.states, &outcome.delta) {
            Reconverge::Restart => None,
            Reconverge::Seed(seeds) => Some(seeds),
        };
        report.converged = false;
        if let Err(e) = self.drive(prog, max_supersteps, None, reseed, None, &mut report) {
            report.interrupted = Some(e);
        }
        report
    }

    /// Resume from the latest valid checkpoint on this engine's device (or
    /// start fresh when none exists) and run to completion, checkpointing
    /// along the way per [`EngineConfig::checkpoint_every`]. A checkpoint
    /// another run left under the engine's tag — of another program, or
    /// taken on another graph (DESIGN.md §11) — is passed over: the run
    /// starts fresh. [`Self::resume`] refuses one instead.
    ///
    /// The graph extents and checkpoint slots must live on the same device
    /// the interrupted run used; `RunReport::resumed_from` records the
    /// checkpointed superstep execution restarted after. The stored CSR is
    /// never torn and recovers to a superstep boundary, but the un-merged
    /// pending structural updates are not in the checkpoint, so
    /// bit-identical *states* after a resume are promised only to programs
    /// that do not mutate the graph — see DESIGN.md §11.
    pub fn run_recoverable(
        &mut self,
        prog: &dyn VertexProgram,
        max_supersteps: usize,
    ) -> RunReport {
        self.recover(prog, max_supersteps, false).unwrap_or_else(|e| RunReport {
            interrupted: Some(e.into()),
            ..self.report_for(prog)
        })
    }

    /// [`Self::run_recoverable`] for a caller that asked to continue a run
    /// (`mlvc resume`): a checkpoint of another program or graph under the
    /// engine's tag is refused with [`ConfigError::ForeignCheckpoint`]
    /// before anything runs, not passed over.
    pub fn resume(
        &mut self,
        prog: &dyn VertexProgram,
        max_supersteps: usize,
    ) -> Result<RunReport, ConfigError> {
        self.recover(prog, max_supersteps, true)
    }

    /// The body of [`Self::run_recoverable`] and [`Self::resume`]: a
    /// foreign checkpoint is refused when `refuse_foreign`, passed over
    /// otherwise.
    fn recover(
        &mut self,
        prog: &dyn VertexProgram,
        max_supersteps: usize,
        refuse_foreign: bool,
    ) -> Result<RunReport, ConfigError> {
        let mut report = self.report_for(prog);
        let (mgr, point) = match load_resume_point(&self.ssd, &self.cfg.tag, &self.graph, prog) {
            Ok(r) => r,
            Err(e) => {
                report.interrupted = Some(e);
                return Ok(report);
            }
        };
        let resume = match point {
            ResumePoint::Own(cp) => Some(cp),
            ResumePoint::Foreign(e) if refuse_foreign => return Err(e),
            ResumePoint::Foreign(_) | ResumePoint::Fresh => None,
        };
        if let Some(cp) = &resume {
            report.resumed_from = Some(cp.superstep);
        }
        let resumed = resume.as_ref();
        if let Err(e) = self.drive(prog, max_supersteps, resumed, None, Some(mgr), &mut report) {
            report.interrupted = Some(e);
        }
        Ok(report)
    }

    /// An empty report of a run of `prog` on this engine, under its tag.
    fn report_for(&self, prog: &dyn VertexProgram) -> RunReport {
        RunReport {
            engine: self.name().to_string(),
            app: prog.name().to_string(),
            job_id: self.cfg.tag.clone(),
            ..Default::default()
        }
    }

    /// The superstep driver (Algorithm 1). Fresh runs pass `resume: None`;
    /// `run_recoverable` passes the recovered state; an incremental
    /// re-convergence passes `reseed: Some(...)` — current states are kept
    /// and the given updates become superstep 1's inbox. A checkpointing
    /// drive writes through `ckpt` when the caller already opened the
    /// slots. An invalid configuration ends it before anything else. Fills
    /// `report` as it goes so completed supersteps survive a device fault.
    fn drive(
        &mut self,
        prog: &dyn VertexProgram,
        max_supersteps: usize,
        resume: Option<&CheckpointState>,
        reseed: Option<Vec<Update>>,
        ckpt: Option<CheckpointManager>,
        report: &mut RunReport,
    ) -> Result<(), DeviceError> {
        self.cfg.validate()?;
        let mut d = Drive::enter(self, prog, ckpt)?;
        let start = d.seed(resume, reseed, report)?;
        for superstep in start..=max_supersteps {
            if d.idle() {
                break;
            }
            Superstep::new(&mut d, superstep).run(report)?;
        }
        report.converged = d.idle();
        d.finish(report)
    }
}

/// Everything that lives from a drive's entry to its end: the engine's
/// fields (split so stages can borrow them independently), the units built
/// for this run, and the frontier carried from one superstep to the next.
pub(crate) struct Drive<'a> {
    pub(crate) ssd: &'a Arc<Ssd>,
    pub(crate) graph: &'a Arc<StoredGraph>,
    pub(crate) cfg: &'a EngineConfig,
    states: &'a mut Vec<u64>,
    pub(crate) mutations: &'a mut Option<Arc<Mutex<MutationLog>>>,
    prog: &'a dyn VertexProgram,

    multilog: MultiLog,
    pub(crate) edgelog: EdgeLogOptimizer,
    pub(crate) loader: GraphLoader,
    pub(crate) structural: StructuralUpdateBuffer,
    pub(crate) tiering: Tiering,
    tracer: Tracer,
    checkpointer: Option<Checkpointer>,
    /// The send buffers, one set per worker thread of the process stage:
    /// filled there, drained by the scatter stage, reused by every interval
    /// of every superstep.
    sinks: Vec<SendSink>,

    /// Messages pending per interval, the all-active flag of a run's first
    /// superstep, and the vertices that asked to stay active.
    pending: Vec<u64>,
    all_active: bool,
    self_active: Vec<VertexId>,
}

impl<'a> Drive<'a> {
    /// Build the units of one drive, in the order their device effects
    /// must happen: the multi-log truncates its extents before tiering arms
    /// its retention. A program that reads
    /// weights the stored graph does not have is refused before any of it.
    fn enter(
        eng: &'a mut MultiLogEngine,
        prog: &'a dyn VertexProgram,
        ckpt: Option<CheckpointManager>,
    ) -> Result<Self, DeviceError> {
        let MultiLogEngine { ssd, graph, cfg, states, mutations } = eng;
        let (ssd, graph, cfg) = (&*ssd, &*graph, &*cfg);
        if prog.needs_weights() && !graph.has_weights() {
            return Err(ConfigError::NeedsWeights { app: prog.name() }.into());
        }
        let intervals = graph.intervals();
        let tracer = Tracer::start(ssd, cfg.tiering.budget_bytes() > 0);
        let mut multilog = MultiLog::new(
            Arc::clone(ssd),
            intervals.clone(),
            MultiLogConfig {
                buffer_bytes: cfg.multilog_budget(),
                // The record shape and the decode follow the program,
                // nothing else.
                reads_src: prog.reads_src(),
                combine: prog.combine(),
            },
            &cfg.tag,
        )?;
        let mut loader = GraphLoader::new();
        let tiering =
            Tiering::enter(ssd, graph, &cfg.tiering, &mut multilog, &mut loader.held)?;
        let edgelog = EdgeLogOptimizer::new(
            Arc::clone(ssd),
            graph.num_vertices(),
            cfg.edgelog_budget(),
            &cfg.tag,
        )?;
        Ok(Drive {
            ssd,
            graph,
            cfg,
            states,
            mutations,
            prog,
            multilog,
            edgelog,
            loader,
            structural: StructuralUpdateBuffer::new(
                intervals.clone(),
                STRUCTURAL_MERGE_THRESHOLD,
            ),
            tiering,
            tracer,
            checkpointer: Checkpointer::open(
                ssd,
                &cfg.tag,
                cfg.checkpoint_every,
                ckpt,
                identity(prog, graph),
            )?,
            sinks: Vec::new(),
            pending: Vec::new(),
            all_active: false,
            self_active: Vec::new(),
        })
    }

    /// Seeding (superstep 0): initial messages go through the multi-log
    /// exactly like any other update. A resumed run restores the checkpoint
    /// instead: vertex states, self-active set, and the pending log pages
    /// of the checkpointed superstep (the edge log restarts cold — a pure
    /// cache, results are unaffected). An incremental re-convergence
    /// (DESIGN.md §17) keeps the current states — they are already a
    /// fixpoint of the pre-merge graph — and delivers the delta's seed
    /// messages in superstep 1. Records the phase in `report.seeding` and
    /// returns the first superstep to run.
    fn seed(
        &mut self,
        resume: Option<&CheckpointState>,
        reseed: Option<Vec<Update>>,
        report: &mut RunReport,
    ) -> Result<usize, DeviceError> {
        let n = self.graph.num_vertices();
        let mut start = 1;
        let seeds = match (resume, reseed) {
            (Some(cp), _) => {
                self.states.clone_from(&cp.states);
                self.all_active = cp.all_active;
                self.self_active = cp.vertices_from_bits();
                start = cp.superstep as usize + 1;
                self.pending = self.multilog.restore_pending(&cp.msgs)?;
                None
            }
            (None, Some(seeds)) => Some(seeds),
            (None, None) => {
                *self.states = (0..n as VertexId).map(|v| self.prog.init_state(v)).collect();
                match self.prog.init_active(n) {
                    InitActive::All => {
                        self.all_active = true;
                        self.pending = vec![0; self.graph.intervals().num_intervals()];
                        None
                    }
                    InitActive::Seeds(seeds) => Some(seeds),
                }
            }
        };
        if let Some(seeds) = seeds {
            for u in seeds {
                self.multilog.send(u)?;
            }
            self.pending = self.multilog.finish_superstep()?;
        }
        report.seeding = SuperstepStats {
            messages_sent: self.pending.iter().sum(),
            io: self.tracer.io_since_start(self.ssd),
            ..Default::default()
        };
        let (ml, el, held) = (&self.multilog, &self.edgelog, &self.loader.held);
        self.tracer.close(self.ssd, ml, el, held, &mut report.seeding);
        Ok(start)
    }

    /// Whether adjacency may come from the edge log at all (it stores no
    /// weights).
    fn use_elog(&self) -> bool {
        self.cfg.enable_edge_log && !self.prog.needs_weights()
    }

    /// Nothing left to process: no pending message, no vertex kept active.
    fn idle(&self) -> bool {
        !self.all_active && self.pending.iter().all(|&c| c == 0) && self.self_active.is_empty()
    }

    fn finish(mut self, report: &mut RunReport) -> Result<(), DeviceError> {
        self.merge_structural(1, report)?;
        report.multilog = Some(self.multilog.stats());
        report.edgelog = Some(self.edgelog.stats());
        self.tracer.finish(self.ssd, &self.multilog, &self.edgelog, report);
        Ok(())
    }
}

/// Work unit handed to the parallel processing stage: a vertex, its
/// messages borrowed in place from the interval's inbox, and its index in
/// the interval's `Adjacency` — where its edge list is a view over the pages
/// the loader was lent, and what the sinks hold its `send_along` messages
/// under until the stage settles them. Assembling the items copies and
/// decodes nothing (DESIGN.md §12).
struct WorkItem<'a> {
    v: VertexId,
    msgs: &'a [Update],
    slot: usize,
}

/// Stable merge of two dest-sorted runs; on equal destinations `a` (the
/// previous superstep's batch) stays ahead of `b` (the current superstep's
/// drained log). Under a `combine`, `a` arrives folded by the decode and
/// the merge folds on: every record joins its destination's single update
/// in merged order — the left fold over `a`'s records, then `b`'s.
fn merge_by_dest(a: &[Update], b: &[Update], combine: Option<Combine>) -> Vec<Update> {
    let mut out: Vec<Update> = Vec::with_capacity(a.len() + b.len());
    let mut push = |u: Update| match (combine, out.last_mut()) {
        (Some(f), Some(last)) if last.dest == u.dest => last.data = f(last.data, u.data),
        (Some(_), _) => out.push(Update::new(u.dest, VertexId::MAX, u.data)),
        (None, _) => out.push(u),
    };
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() || j < b.len() {
        if j >= b.len() || (i < a.len() && a[i].dest <= b[j].dest) {
            push(a[i]);
            i += 1;
        } else {
            push(b[j]);
            j += 1;
        }
    }
    out
}

/// Active vertices of one interval: destinations holding messages in the
/// dest-sorted `inbox` merged with explicitly kept-active vertices (or the
/// whole interval on an all-active superstep). Returns `(v, message range
/// into inbox)` pairs sorted by vertex. `self_active` is sorted and may
/// span other intervals; the baseline engines build their work lists with
/// it too.
pub fn actives_for_interval(
    inbox: &[Update],
    self_active: &[VertexId],
    interval: Range<VertexId>,
    all_active: bool,
) -> Vec<(VertexId, Range<usize>)> {
    let mut groups: Vec<(VertexId, Range<usize>)> = Vec::new();
    let mut offset = 0usize;
    for (dest, g) in group_by_dest(inbox) {
        groups.push((dest, offset..offset + g.len()));
        offset += g.len();
    }
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
        if si >= self_active.len() || (gi < groups.len() && groups[gi].0 <= self_active[si]) {
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

/// A look-ahead worker's result: the plan it was handed back, for the
/// owner's consume, and the batch decoded from the plan's pages.
type Fetched = Result<(BatchPlan, FusedBatch), DeviceError>;

/// Who decodes a fused batch whose read is on the I/O queue. Either way the
/// owner fetched the pages right after the submit, and they — or the read's
/// error, surfaced only when the batch is retired — move with the decoder.
enum Decoder<'s> {
    /// Nobody was given it: the owner does, where it retires the ticket.
    Owner(BatchPlan, Result<Vec<Page>, DeviceError>),
    /// A look-ahead worker, spawned when the read was submitted.
    Worker(ScopedJoinHandle<'s, Fetched>),
}

/// Decode a batch's fetched pages (or pass their read error on) into inbox
/// order, handing the plan back for the consume.
fn decode(bplan: BatchPlan, pages: Result<Vec<Page>, DeviceError>) -> Fetched {
    let batch = bplan.decode(&pages?)?;
    Ok((bplan, batch))
}

/// The fetch stage of a superstep, in both computation models (DESIGN.md
/// §12): the owner keeps up to K ([`INFLIGHT_BATCHES`]) fused-batch reads on
/// the I/O queue, planned and submitted in plan order, retires the tickets
/// strictly in plan order and consumes the drained logs there. A batch is
/// decoded by the thread that would otherwise wait for it: a batch submitted
/// ahead of the one being retired goes to a scoped look-ahead worker when
/// the engine has a second thread; the batch being retired, if nobody was
/// given it — the first of every superstep, every batch on a one-thread
/// engine — is decoded by the owner, which would only have spawned a thread
/// to join it at once. A worker is handed its plan and pages by value,
/// gives the decoded batch back only through its join (in plan order: the
/// owner joins the handle of the batch it retires), and holds neither the
/// multi-log nor the queue (which is not `Sync`), so every clock-, device-
/// and cache-touching call runs on the owner thread, and the simulated
/// timeline and every counter are identical at any worker-thread count.
struct Fetch<'s, 'e> {
    ioq: &'e IoQueue,
    plan: &'e [Range<IntervalId>],
    submitted: usize,
    /// Batches retired so far: the next to retire is `plan[retired]`.
    retired: usize,
    inflight: VecDeque<(Ticket, Decoder<'s>)>,
    /// The batch last retired, shared with the inboxes of its intervals.
    batch: Option<Rc<FusedBatch>>,
    /// In the synchronous model, the intervals of the batch last retired
    /// not yet prepared: each planned, its row pointers on the queue, when
    /// the batch retired.
    planned: VecDeque<Planned<'e>>,
}

impl<'s, 'e> Fetch<'s, 'e> {
    fn new(ioq: &'e IoQueue, plan: &'e [Range<IntervalId>]) -> Self {
        Fetch {
            ioq,
            plan,
            submitted: 0,
            retired: 0,
            inflight: VecDeque::new(),
            batch: None,
            planned: VecDeque::new(),
        }
    }

    /// Whether interval `i` is the first of the next batch to retire.
    fn opens(&self, i: IntervalId) -> bool {
        self.plan.get(self.retired).is_some_and(|r| r.start == i)
    }

    /// Retire the next batch — submitted here when it was not read ahead —
    /// and consume the logs it drained from `ml`, counting in `st` who
    /// decoded it.
    fn next(
        &mut self,
        scope: &Scope<'s, 'e>,
        ml: &mut MultiLog,
        st: &mut SuperstepStats,
    ) -> Result<FusedBatch, DeviceError> {
        let bi = self.retired;
        self.submit_until(scope, ml, bi, bi + 1)?;
        let Some((ticket, decoder)) = self.inflight.pop_front() else {
            return Err(DeviceError::Io(format!("no read in flight for fused batch {bi}")));
        };
        let fetched = match decoder {
            Decoder::Owner(bplan, pages) => {
                st.batches_inline += 1;
                decode(bplan, pages)
            }
            Decoder::Worker(worker) => {
                st.batches_handed_off += 1;
                worker.join().unwrap_or_else(|p| std::panic::resume_unwind(p))
            }
        };
        let (bplan, batch) = fetched?;
        // Retire the ticket on the owner clock — any residual service time
        // the overlap could not hide is charged here — and consume the
        // logs the batch drained.
        self.ioq.complete(ticket);
        ml.consume(&bplan, &batch)?;
        self.retired += 1;
        Ok(batch)
    }

    /// Read ahead of the batch last retired: keep it and the K − 1 batches
    /// after it submitted. The owner tops this up as each batch is retired
    /// — right after the retire in the synchronous model, after the
    /// batch's first interval is prepared in the asynchronous one
    /// (`Superstep::ready`).
    fn read_ahead(&mut self, scope: &Scope<'s, 'e>, ml: &mut MultiLog) -> Result<(), DeviceError> {
        let bi = self.retired - 1;
        self.submit_until(scope, ml, bi, bi + INFLIGHT_BATCHES)
    }

    /// Submit the batches not yet submitted below `end` and fetch their
    /// pages, each batch handed to a look-ahead worker when it lies ahead
    /// of `bi` and there is a second thread. Planning takes the batch's
    /// intervals' logs into its plan, the pages they hold or carried in
    /// host memory with them, so the worker decodes those beside the
    /// fetched ones and no later eviction writes them out.
    fn submit_until(
        &mut self,
        scope: &Scope<'s, 'e>,
        ml: &mut MultiLog,
        bi: usize,
        end: usize,
    ) -> Result<(), DeviceError> {
        while self.submitted < self.plan.len().min(end) {
            let bplan = ml.plan_reads(self.plan[self.submitted].clone());
            let ticket = self.ioq.submit_read(bplan.reqs.clone());
            let pages = self.ioq.fetch(ticket);
            let decoder = if self.submitted > bi && mlvc_par::max_threads() > 1 {
                Decoder::Worker(scope.spawn(move || decode(bplan, pages)))
            } else {
                Decoder::Owner(bplan, pages)
            };
            self.inflight.push_back((ticket, decoder));
            self.submitted += 1;
        }
        Ok(())
    }
}

/// An interval's inbox: its dest span of the fused batch — or, in the
/// asynchronous model when the superstep already logged something for the
/// interval, that span merged with it.
enum Inbox {
    Span(Rc<FusedBatch>, Range<usize>),
    Merged(Vec<Update>),
}

impl Inbox {
    fn updates(&self) -> &[Update] {
        match self {
            Inbox::Span(batch, span) => &batch.updates[span.clone()],
            Inbox::Merged(updates) => updates,
        }
    }
}

/// An interval planned for its load: its inbox, its active vertices, those
/// of them the edge log serves, the row pointers of the rest — on the
/// queue, their ticket among `reads` — as partitioned when it was planned.
struct Planned<'q> {
    i: IntervalId,
    inbox: Inbox,
    actives: Vec<(VertexId, Range<usize>)>,
    elog_vs: Vec<VertexId>,
    rows: RowPtrs,
    reads: Reads<'q>,
}

/// An interval prepared ahead of its process stage: its inbox, its active
/// vertices, their adjacency as stored, and the queue tickets that read it.
struct Loaded<'q> {
    i: IntervalId,
    inbox: Inbox,
    actives: Vec<(VertexId, Range<usize>)>,
    adj: Adjacency,
    reads: Reads<'q>,
}

/// One superstep of a drive: plan → fetch → per interval (inbox → load →
/// process → scatter → apply, the next interval prepared — its batch
/// retired first when it opens one — before this one's process) →
/// close-out.
struct Superstep<'d, 'a> {
    d: &'d mut Drive<'a>,
    st: SuperstepStats,
    active_bits: BitSet,
    next_self_active: Vec<VertexId>,
    /// Simulated compute the queue clock has been advanced by so far.
    charged: u64,
}

impl<'d, 'a> Superstep<'d, 'a> {
    fn new(d: &'d mut Drive<'a>, superstep: usize) -> Self {
        let active_bits = BitSet::new(d.graph.num_vertices());
        Superstep {
            d,
            st: SuperstepStats { superstep, ..Default::default() },
            active_bits,
            next_self_active: Vec::new(),
            charged: 0,
        }
    }

    /// Run the superstep and push its stats onto `report`: one loop over
    /// the superstep's intervals, one interval ahead (DESIGN.md §12).
    /// Interval *i+1* is made ready — its fused batch retired first when it
    /// opens one, then its inbox, active vertices and adjacency reads on
    /// the queue — before interval *i*'s tickets are retired, so *i+1*'s
    /// reads, and at a batch boundary the next batch's read-ahead, are
    /// serviced during *i*'s compute and beside the tail of *i*'s reads on
    /// other channels. In the asynchronous model *i+1*'s inbox is final
    /// only after *i*'s scatter, so it is made ready after that.
    fn run(mut self, report: &mut RunReport) -> Result<(), DeviceError> {
        let wall0 = Instant::now();
        let io0 = self.d.ssd.stats().snapshot();
        let plan = plan_fusion(&self.d.pending, self.d.cfg.sort_budget());
        let intervals = plan.last().map_or(0, |r| r.end);
        // A worker decodes fused batch k+1 from its pages while batch k is
        // processed and its updates are scattered into the write side. The
        // read side's records do not change between the flip that opened
        // this superstep and each batch's consume — an eviction may move an
        // unplanned interval's carried pages onto its read-side file, never
        // a planned one's — so both computation models read it ahead, and
        // a batch decodes the same whenever, and wherever, it is fetched.
        let ioq = IoQueue::new(Arc::clone(self.d.ssd), QUEUE_DEPTH);
        // Planning the batches and opening the queue is the fetch stage's
        // time: on a sparse superstep it is most of what no other row names.
        self.st.fetch_wait_ns += wall0.elapsed().as_nanos() as u64;
        mlvc_par::scope(|scope| -> Result<(), DeviceError> {
            let mut fetch = Fetch::new(&ioq, &plan);
            let ahead = !self.d.cfg.async_mode;
            let mut next: Option<Loaded> = None;
            for i in 0..intervals {
                let loaded = match next.take() {
                    Some(l) => l,
                    None => self.ready(i, &mut fetch, scope)?,
                };
                if ahead && i + 1 < intervals {
                    next = Some(self.ready(i + 1, &mut fetch, scope)?);
                }
                self.retire(loaded, &ioq)?;
                self.charge(&ioq);
            }
            Ok(())
        })?;
        self.close_out(&ioq, wall0, io0, report)
    }

    /// Make interval `i` ready for its process stage. An interval that
    /// opens a fused batch retires the batch first, and every batch takes
    /// one order: retire it; top the read-ahead up; charge its sort to the
    /// queue clock — the batch is sorted before any of its intervals can
    /// name an active vertex, so no adjacency read of its own overlaps the
    /// sort; then, in the synchronous model, plan every interval of the
    /// batch — its active list, and its row-pointer read on the queue, one
    /// ticket an interval — and load the first. In the synchronous model
    /// that happens before the previous batch's last interval is retired,
    /// so the sort and the reads overlap that interval's compute, and each
    /// later interval's row pointers are in flight long before its column
    /// indices are read behind them. The asynchronous model, which cannot
    /// prepare ahead (an interval's inbox is final only after the scatter
    /// before it), plans each interval at its own prepare, and tops the
    /// read-ahead up only once the first interval's reads are out, so that
    /// demand reads reach the channels before prefetched ones.
    fn ready<'s, 'e>(
        &mut self,
        i: IntervalId,
        fetch: &mut Fetch<'s, 'e>,
        scope: &Scope<'s, 'e>,
    ) -> Result<Loaded<'e>, DeviceError> {
        let opens = fetch.opens(i);
        let ahead = !self.d.cfg.async_mode;
        if opens {
            let t_fetch = Instant::now();
            let batch = fetch.next(scope, &mut self.d.multilog, &mut self.st)?;
            if ahead {
                fetch.read_ahead(scope, &mut self.d.multilog)?;
            }
            self.st.fetch_wait_ns += t_fetch.elapsed().as_nanos() as u64;
            self.st.load_ns += batch.load_ns;
            self.st.sort_ns += batch.sort_ns;
            self.st.messages_processed += batch.records;
            self.charge(fetch.ioq);
            let batch = Rc::new(batch);
            if ahead {
                for j in fetch.plan[fetch.retired - 1].clone() {
                    let planned = self.plan(j, &batch, fetch.ioq)?;
                    fetch.planned.push_back(planned);
                }
            }
            fetch.batch = Some(batch);
        }
        let planned = match (fetch.planned.pop_front(), &fetch.batch) {
            (Some(planned), _) => planned,
            (None, Some(batch)) => self.plan(i, batch, fetch.ioq)?,
            (None, None) => {
                return Err(DeviceError::Io(format!("no fused batch retired for interval {i}")))
            }
        };
        debug_assert_eq!(planned.i, i, "intervals planned out of order");
        let loaded = self.load(planned)?;
        if opens && !ahead {
            let t_ahead = Instant::now();
            fetch.read_ahead(scope, &mut self.d.multilog)?;
            self.st.fetch_wait_ns += t_ahead.elapsed().as_nanos() as u64;
        }
        Ok(loaded)
    }

    /// Advance the queue clock by the simulated compute since the last
    /// charge, so the service of reads and writes already submitted
    /// overlaps it. One running total for the whole superstep: the
    /// advances sum exactly to `st.compute_ns` in both models — the
    /// asynchronous model's `inbox` included, which adds what it drained
    /// from the write side to `messages_processed` (`close_out` holds the
    /// sum).
    fn charge(&mut self, ioq: &IoQueue) {
        let now = self.compute_ns();
        ioq.advance(now - self.charged);
        self.charged = now;
    }

    /// The superstep's simulated compute so far.
    fn compute_ns(&self) -> u64 {
        compute_ns(self.st.messages_processed, self.st.messages_delivered, self.st.edges_scanned)
    }

    /// Plan interval `i` of `batch`: carve its inbox and active vertices out
    /// of the batch, split them between the edge log — where the previous
    /// superstep staged a vertex's list — and the CSR, and read the CSR
    /// vertices' row pointers through the queue, the ticket left in flight.
    /// Most supersteps stage nothing: the edge log's read side is probed per
    /// vertex only when it holds something. A vertex with structural updates
    /// pending comes from the CSR until they merge.
    fn plan<'q>(
        &mut self,
        i: IntervalId,
        batch: &Rc<FusedBatch>,
        ioq: &'q IoQueue,
    ) -> Result<Planned<'q>, DeviceError> {
        let t_assemble = Instant::now();
        let inbox = self.inbox(i, batch, ioq)?;
        let actives = actives_for_interval(
            inbox.updates(),
            &self.d.self_active,
            self.d.graph.intervals().range(i),
            self.d.all_active,
        );
        self.st.assemble_ns += t_assemble.elapsed().as_nanos() as u64;
        let t_adj = Instant::now();
        let d = &mut *self.d;
        let probe = d.use_elog() && !d.edgelog.read_side_is_empty();
        let vs: Vec<VertexId> = actives.iter().map(|(v, _)| *v).collect();
        let (elog_vs, csr_vs): (Vec<VertexId>, Vec<VertexId>) = if probe {
            vs.into_iter().partition(|&v| d.edgelog.contains(v) && !d.structural.names(v))
        } else {
            (Vec::new(), vs)
        };
        let mut reads = Reads::Queue(ioq, Vec::new());
        let rows = d.loader.read_row_ptrs(&mut reads, d.graph, i, csr_vs)?;
        self.st.adjacency_ns += t_adj.elapsed().as_nanos() as u64;
        Ok(Planned { i, inbox, actives, elog_vs, rows, reads })
    }

    /// Retire a prepared interval's tickets — whatever service its reads
    /// still need is charged here — then patch, process, scatter, apply.
    /// The queue clock is advanced by the compute before the scatter, so an
    /// eviction flush is written behind the compute that produced it.
    fn retire(&mut self, loaded: Loaded, ioq: &IoQueue) -> Result<(), DeviceError> {
        let Loaded { i, inbox, actives, mut adj, reads } = loaded;
        reads.retire();
        if actives.is_empty() {
            return Ok(());
        }
        let t_adj = Instant::now();
        self.d.structural.patch(i, &mut adj);
        self.st.adjacency_ns += t_adj.elapsed().as_nanos() as u64;
        let items = self.assemble(&actives, inbox.updates(), &adj);
        let outputs = self.process(&items, &adj);
        self.charge(ioq);
        self.scatter(ioq)?;
        self.apply(i, &items, &adj, outputs)
    }

    /// Interval `i`'s inbox: the contiguous dest range of the sorted batch,
    /// shared in place — merged, in the asynchronous model, with whatever
    /// the current superstep already logged for the interval. Under a
    /// `combine` it holds one update per destination either way. The
    /// write side is read only once the writes queued to it are done.
    fn inbox(
        &mut self,
        i: IntervalId,
        batch: &Rc<FusedBatch>,
        ioq: &IoQueue,
    ) -> Result<Inbox, DeviceError> {
        let span = self.d.graph.intervals().range(i);
        let lo = batch.updates.partition_point(|u| u.dest < span.start);
        let hi = batch.updates.partition_point(|u| u.dest < span.end);
        let previous = Inbox::Span(Rc::clone(batch), lo..hi);
        if !self.d.cfg.async_mode {
            return Ok(previous);
        }
        ioq.drain_writes();
        let plan = self.d.multilog.plan_current(i)?;
        let extra = plan.decode(&self.d.ssd.read_batch(&plan.reqs)?)?;
        self.d.multilog.consume(&plan, &extra)?;
        if extra.updates.is_empty() {
            return Ok(previous);
        }
        self.st.messages_processed += extra.records;
        // Both runs are stable by destination: merged, they are the inbox.
        Ok(Inbox::Merged(merge_by_dest(previous.updates(), &extra.updates, self.d.prog.combine())))
    }

    /// Read a planned interval's adjacency, the lists as stored: the column
    /// indices (and `val`) of its CSR vertices linked behind their row
    /// pointers, then the edge log's lists. The plan's split still holds:
    /// a structural update names only the vertex that made it
    /// (`VertexCtx::add_edge`), in its own process stage, after its load.
    fn load<'q>(&mut self, planned: Planned<'q>) -> Result<Loaded<'q>, DeviceError> {
        let Planned { i, inbox, actives, elog_vs, rows, mut reads } = planned;
        if actives.is_empty() {
            return Ok(Loaded { i, inbox, actives, adj: Adjacency::default(), reads });
        }
        let t_adj = Instant::now();
        let d = &mut *self.d;
        debug_assert!(!elog_vs.iter().any(|&v| d.structural.names(v)), "named since the plan");
        let mut adj = d.loader.load_active_with(&mut reads, d.graph, rows, d.prog.needs_weights())?;
        if !elog_vs.is_empty() {
            self.st.edge_log_hits += elog_vs.len() as u64;
            d.edgelog.fetch(&mut reads, &elog_vs, &mut adj)?;
            adj.sort_by_vertex();
        }
        self.st.adjacency_ns += t_adj.elapsed().as_nanos() as u64;
        Ok(Loaded { i, inbox, actives, adj, reads })
    }

    /// Assemble work items in vertex order — borrows only, no adjacency
    /// clones or message copies. A vertex's messages are its group of the
    /// inbox: every record, or the one the decode folded them into.
    fn assemble<'x>(
        &mut self,
        actives: &'x [(VertexId, Range<usize>)],
        inbox: &'x [Update],
        adj: &'x Adjacency,
    ) -> Vec<WorkItem<'x>> {
        let t_assemble = Instant::now();
        assert_eq!(adj.len(), actives.len(), "one adjacency per active vertex");
        let mut items: Vec<WorkItem> = Vec::with_capacity(actives.len());
        for (slot, ((v, r), a)) in actives.iter().zip(adj.vertices()).enumerate() {
            debug_assert_eq!(a.v, *v);
            self.st.edges_scanned += adj.edges(slot).len() as u64;
            self.st.messages_delivered += r.len() as u64;
            items.push(WorkItem { v: *v, msgs: &inbox[r.clone()], slot });
        }
        self.st.assemble_ns += t_assemble.elapsed().as_nanos() as u64;
        items
    }

    /// Parallel vertex processing over the frozen states: the workers
    /// borrow `states` shared, and [`Self::apply`] writes it through `&mut`
    /// only once they have joined — the borrow checker orders the two
    /// (DESIGN.md §14). Each worker
    /// thread writes the messages of its chunk of `items` straight into its
    /// own sink, already split by destination interval; messages sent along
    /// an edge by its index wait there, and once the workers have joined
    /// each sink reads their endpoints out of the lent pages in one pass.
    fn process(&mut self, items: &[WorkItem], adj: &Adjacency) -> Vec<VertexOutputs> {
        let t_proc = Instant::now();
        let d = &mut *self.d;
        let fork = items.len() >= FORK_MIN_ITEMS;
        let workers = if fork { mlvc_par::max_threads() } else { 1 };
        if d.sinks.len() < workers {
            let intervals = d.graph.intervals();
            d.sinks.resize_with(workers, || SendSink::routed(intervals));
        }
        let frozen: &[u64] = d.states;
        let (prog, seed) = (d.prog, d.cfg.seed);
        let (superstep, n) = (self.st.superstep, frozen.len());
        let process = |item: &WorkItem, sink: &mut SendSink| {
            let mut ctx = VertexCtx::new(
                item.v,
                superstep,
                n,
                frozen[item.v as usize],
                item.msgs,
                adj.edges(item.slot),
                adj.weights(item.slot),
                seed,
                sink,
            )
            .holding_along(item.slot);
            prog.process(&mut ctx);
            ctx.into_outputs()
        };
        let outputs = mlvc_par::par_map_with(items, &mut d.sinks[..workers], process);
        for sink in &mut d.sinks[..workers] {
            sink.settle(|s, e| adj.edges(s).get(e));
        }
        self.st.process_ns += t_proc.elapsed().as_nanos() as u64;
        outputs
    }

    /// Update scatter: drain the sinks interval-major, worker order within
    /// an interval. A worker holds the sends of one contiguous chunk of
    /// items in item order, so every interval's messages are appended in
    /// item-index order — exactly what a serial per-update loop would
    /// produce, and log pages stay bit-identical for any thread count
    /// (DESIGN.md §12). Eviction flushes go onto the queue, written behind.
    fn scatter(&mut self, ioq: &IoQueue) -> Result<(), DeviceError> {
        let t_scatter = Instant::now();
        let d = &mut *self.d;
        let writes = Writes::Queue(ioq);
        for j in d.graph.intervals().iter_ids() {
            for sink in &d.sinks {
                d.multilog.send_batch_with(&writes, j, &sink.buffers()[j as usize])?;
            }
        }
        d.sinks.iter_mut().for_each(SendSink::clear);
        self.st.scatter_ns += t_scatter.elapsed().as_nanos() as u64;
        Ok(())
    }

    /// Apply outputs: state, activity, structural updates, edge-log
    /// staging. `dest_seen` reflects every send of this interval's items
    /// (the scatter ran first) — a whole-item activity signal affecting
    /// edge-log I/O only, never results. A structural update the commit
    /// would refuse — an endpoint outside the graph, any on a weighted
    /// graph — ends the run here, in the superstep that made it.
    fn apply(
        &mut self,
        i: IntervalId,
        items: &[WorkItem],
        adj: &Adjacency,
        outputs: Vec<VertexOutputs>,
    ) -> Result<(), DeviceError> {
        let t_apply = Instant::now();
        let d = &mut *self.d;
        let (use_elog, colidx_file) = (d.use_elog(), d.graph.colidx_file(i));
        for (item, out) in items.iter().zip(outputs) {
            d.states[item.v as usize] = out.state;
            self.active_bits.set(item.v as usize);
            self.st.active_vertices += 1;
            if out.keep_active {
                self.next_self_active.push(item.v);
            }
            if !out.structural.is_empty() {
                if d.graph.has_weights() {
                    return Err(MutationError::WeightedUnsupported.into_device_error());
                }
                validate_range(&out.structural, d.states.len())
                    .map_err(MutationError::into_device_error)?;
                out.structural.into_iter().for_each(|su| d.structural.push(su));
            }
            if !use_elog {
                continue;
            }
            let known = d.multilog.dest_seen(item.v);
            let edges = adj.edges(item.slot);
            let stage = match adj.vertices()[item.slot].csr_pages() {
                Some((plo, phi)) => {
                    d.edgelog.should_log(item.v, edges.len(), known, colidx_file, plo..=phi)
                }
                // Served from the edge log: keep the dense copy alive
                // while the vertex stays active.
                None => known || d.edgelog.predicted_active(item.v),
            };
            // What is staged must be the stored list: not while an update
            // of it is pending.
            if stage && !d.structural.names(item.v) {
                d.edgelog.log_edges(item.v, edges)?;
            }
        }
        self.st.apply_ns += t_apply.elapsed().as_nanos() as u64;
        Ok(())
    }

    /// Superstep close-out: page-usage accounting, the log-side flip,
    /// structural merges, the retier, the checkpoint, and the superstep's
    /// statistics. The queued writes are drained first, so every device
    /// call here is synchronous.
    fn close_out(
        mut self,
        ioq: &IoQueue,
        wall0: Instant,
        io0: SsdStatsSnapshot,
        report: &mut RunReport,
    ) -> Result<(), DeviceError> {
        let t_close = Instant::now();
        ioq.drain_writes();
        let d = &mut *self.d;
        let st = &mut self.st;
        let usage = d.loader.take_page_usage(d.ssd.page_size());
        st.colidx_pages_accessed = usage.len() as u64;
        st.colidx_pages_inefficient = usage.iter().filter(|u| is_inefficient(u)).count() as u64;
        d.tiering.note_usage(&usage);
        d.edgelog.end_superstep(&self.active_bits, &usage)?;

        d.pending = d.multilog.finish_superstep()?;
        st.messages_sent = d.pending.iter().sum();
        let due = d.structural.threshold();
        st.mutations = d.merge_structural(due, report)?;
        d.tiering.retier(d.ssd, d.graph, &mut d.multilog, &mut d.loader.held)?;
        self.next_self_active.sort_unstable();
        self.next_self_active.dedup();
        d.self_active = self.next_self_active;
        d.all_active = false;

        // Charged to this superstep's I/O.
        if let Some(c) = d.checkpointer.as_mut() {
            st.checkpointed = c.write_if_due(
                st.superstep,
                d.states,
                d.all_active,
                &d.self_active,
                &d.multilog,
            )?;
        }

        st.compute_ns = compute_ns(st.messages_processed, st.messages_delivered, st.edges_scanned);
        let qw = ioq.take_wait_stats();
        debug_assert_eq!(
            qw.advanced_ns, st.compute_ns,
            "superstep {}: the queue clock was advanced by other than its compute",
            st.superstep
        );
        st.io_wait_ns = qw.io_wait_ns;
        st.write_wait_ns = qw.write_wait_ns;
        st.max_inflight = qw.max_inflight;
        st.io = d.ssd.stats().snapshot().since(&io0);
        st.close_out_ns = t_close.elapsed().as_nanos() as u64;
        st.wall_ns = wall0.elapsed().as_nanos() as u64;
        d.tracer.close(d.ssd, &d.multilog, &d.edgelog, &d.loader.held, st);
        report.supersteps.push(self.st);
        Ok(())
    }
}

impl Engine for MultiLogEngine {
    fn name(&self) -> &'static str {
        "MultiLogVC"
    }

    fn states(&self) -> &[u64] {
        &self.states
    }

    fn run(&mut self, prog: &dyn VertexProgram, max_supersteps: usize) -> RunReport {
        let mut report = self.report_for(prog);
        if let Err(e) = self.drive(prog, max_supersteps, None, None, None, &mut report) {
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

    /// The thread count is process-wide and the tests run side by side: the
    /// ones that pin it take turns.
    static THREAD_OVERRIDE: Mutex<()> = Mutex::new(());

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

    /// Messages sent along an edge are held until the stage settles them:
    /// a program that mixes them with `send` and `send_all` computes the
    /// states the reference engine computes (which reads each edge at once),
    /// through the same log bytes at any thread count.
    #[test]
    fn sends_along_edges_keep_send_order_at_any_thread_count() {
        /// Order-sensitive: the state hashes the inbox in delivery order.
        struct Hopper;
        impl VertexProgram for Hopper {
            fn name(&self) -> &'static str {
                "hopper"
            }
            fn init_state(&self, v: VertexId) -> u64 {
                v as u64
            }
            fn init_active(&self, _n: usize) -> InitActive {
                InitActive::All
            }
            fn process(&self, ctx: &mut VertexCtx<'_>) {
                let h = ctx.msgs().iter().fold(ctx.state(), |h, m| {
                    h.wrapping_mul(0x100_0000_01B3).wrapping_add(m.data ^ ((m.src as u64) << 32))
                });
                ctx.set_state(h);
                if ctx.superstep() > 3 {
                    return;
                }
                ctx.send(ctx.vertex(), h);
                ctx.send_along(h as usize % ctx.degree().max(1), h ^ 1);
                if h % 3 == 0 {
                    ctx.send_all(h ^ 2);
                }
                ctx.send_along(ctx.degree(), h ^ 3); // no such edge
                ctx.send_along(0, h ^ 4);
            }
        }
        let mut b = mlvc_graph::EdgeListBuilder::new(16384);
        for v in 0..16384u32 {
            for k in 0..(v % 7) {
                b.push(v, (v * 37 + k * 1031) % 16384);
            }
        }
        let csr = b.build();
        let mut reference = crate::ReferenceEngine::new(csr.clone(), EngineConfig::default().seed);
        assert!(reference.run(&Hopper, 6).converged);
        let mut logged = None;
        let _pinned = THREAD_OVERRIDE.lock();
        for threads in [1usize, 8] {
            mlvc_par::set_thread_override(Some(threads));
            let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
            let iv = mlvc_graph::VertexIntervals::uniform(16384, 4);
            let sg = StoredGraph::store_with(&ssd, &csr, "g", iv).unwrap();
            let mut eng = MultiLogEngine::new(ssd, sg, EngineConfig::default());
            let report = eng.run(&Hopper, 6);
            assert!(report.converged && report.interrupted.is_none());
            assert_eq!(eng.states(), reference.states(), "threads={threads}");
            let ml = report.multilog.unwrap();
            assert_eq!(*logged.get_or_insert(ml), ml, "threads={threads}");
        }
        mlvc_par::set_thread_override(None);
    }

    /// A fused batch fails the same way whoever decodes it: a flipped
    /// destination bit in a log page, and a read fault that outlasts the
    /// device's retries, reach the owner as the same typed error from a
    /// batch it decoded in place (one thread) and from one a look-ahead
    /// worker was handed (two).
    #[test]
    fn a_damaged_batch_is_the_same_error_inline_and_handed_off() {
        use mlvc_log::page::PAGE_HEADER_BYTES;
        use mlvc_ssd::FaultPlan;

        #[derive(Clone, Copy)]
        enum Damage {
            /// Flip the top destination bit of the last batch's first record.
            FlippedBit,
            /// Fail every page read from here on, past the retry bound.
            ReadFault,
        }
        /// One batch more than the first retire and read-ahead submit, and
        /// one more after that: the last is submitted after the damage,
        /// wherever it is decoded.
        const BATCHES: u32 = INFLIGHT_BATCHES as u32 + 2;
        /// Retire one-interval batches, damaging the device once the first
        /// has retired — by then workers may hold the next K − 1, never the
        /// last. Returns the error and whether the batch that raised it had
        /// been handed off.
        fn first_error(threads: usize, damage: Damage) -> (DeviceError, bool) {
            mlvc_par::set_thread_override(Some(threads));
            let looks_ahead = mlvc_par::max_threads() > 1;
            let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
            let n = 25 * BATCHES;
            let iv = mlvc_graph::VertexIntervals::uniform(n as usize, BATCHES as usize);
            // The floors alone: 8 × n records overflow the eviction period
            // (64 pages of 17), so every interval's log is on the device.
            let cfg = MultiLogConfig { buffer_bytes: 0, ..Default::default() };
            let mut ml = MultiLog::new(Arc::clone(&ssd), iv, cfg, "t").unwrap();
            for m in 0..8 * n {
                ml.send(Update::new(m % n, m, u64::from(m))).unwrap();
            }
            ml.finish_superstep().unwrap();
            let ioq = IoQueue::new(Arc::clone(&ssd), QUEUE_DEPTH);
            let plan: Vec<Range<IntervalId>> = (0..BATCHES).map(|i| i..i + 1).collect();
            let mut st = SuperstepStats::default();
            let failed = mlvc_par::scope(|scope| {
                let mut fetch = Fetch::new(&ioq, &plan);
                fetch.next(scope, &mut ml, &mut st).expect("the device is whole for the first batch");
                fetch.read_ahead(scope, &mut ml).expect("the device is whole for the read-ahead");
                match damage {
                    Damage::FlippedBit => {
                        let f = ssd.lookup(&format!("t.mlog.{}.a", BATCHES - 1)).unwrap();
                        let mut pages: Vec<Vec<u8>> =
                            ssd.read_all(f, |_| 0).unwrap().iter().map(|p| p.to_vec()).collect();
                        pages[0][PAGE_HEADER_BYTES + 1] ^= 0x80;
                        ssd.truncate(f).unwrap();
                        let refs: Vec<&[u8]> = pages.iter().map(|p| p.as_slice()).collect();
                        ssd.append_pages(f, &refs).unwrap();
                    }
                    Damage::ReadFault => {
                        ssd.install_fault_plan(FaultPlan::default().with_read_faults(1, 10));
                    }
                }
                (1..plan.len()).find_map(|_| {
                    let handed_off = st.batches_handed_off;
                    match fetch.next(scope, &mut ml, &mut st) {
                        Ok(_) => fetch.read_ahead(scope, &mut ml).err().map(|e| (e, false)),
                        Err(e) => Some((e, st.batches_handed_off > handed_off)),
                    }
                })
            });
            mlvc_par::set_thread_override(None);
            assert!(st.batches_inline > 0, "the first batch is always the owner's");
            assert_eq!(st.batches_handed_off > 0, looks_ahead);
            failed.expect("the damage must surface")
        }

        let _pinned = THREAD_OVERRIDE.lock();
        // Whether this machine gives the engine a second thread at all.
        mlvc_par::set_thread_override(Some(2));
        let two = mlvc_par::max_threads() > 1;
        for damage in [Damage::FlippedBit, Damage::ReadFault] {
            let (inline, by_worker) = first_error(1, damage);
            assert!(!by_worker, "a one-thread engine hands nothing off");
            if !two {
                continue;
            }
            let (handed_off, by_worker) = first_error(2, damage);
            assert!(by_worker, "with a second thread the look-ahead batch goes to a worker");
            match damage {
                Damage::FlippedBit => {
                    assert!(matches!(inline, DeviceError::Corrupt { what: "log page", .. }));
                    assert_eq!(inline, handed_off);
                }
                // Which page was being read when the fault came differs;
                // what the owner is told does not.
                Damage::ReadFault => {
                    for e in [inline, handed_off] {
                        let DeviceError::ReadUnavailable { retries, .. } = e else {
                            panic!("expected an unavailable page, got {e}");
                        };
                        assert_eq!(retries, 3);
                    }
                }
            }
        }
    }

    /// A checkpoint of the same graph under another interval partition —
    /// `mlvc resume` at another budget — is another run's: ignored, and the
    /// run starts over. Under the same partition it resumes.
    #[test]
    fn a_checkpoint_of_another_partition_is_not_resumed() {
        let csr = ring(64);
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let engine = |intervals: usize| {
            let iv = mlvc_graph::VertexIntervals::uniform(64, intervals);
            let sg = StoredGraph::store_with(&ssd, &csr, "g", iv).unwrap();
            let cfg = EngineConfig::default().with_checkpoint_every(1);
            MultiLogEngine::new(Arc::clone(&ssd), sg, cfg)
        };
        assert!(engine(4).run(&Flood, 3).interrupted.is_none());
        let other = engine(2).run_recoverable(&Flood, 80);
        assert!(other.converged && other.interrupted.is_none(), "{:?}", other.interrupted);
        assert_eq!(other.resumed_from, None);
        // The run above checkpointed under its own partition in turn.
        assert!(engine(4).run(&Flood, 3).interrupted.is_none());
        let same = engine(4).run_recoverable(&Flood, 80);
        assert!(same.converged && same.interrupted.is_none());
        assert_eq!(same.resumed_from, Some(3));
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

    /// Vertex 0 sends 1 over all its edges in supersteps 2–6 and, in
    /// superstep 3, makes `reps` structural updates of its own list; every
    /// other vertex counts what it receives.
    struct Shortcut {
        reps: usize,
        update: fn(&mut VertexCtx<'_>),
    }
    impl VertexProgram for Shortcut {
        fn name(&self) -> &'static str {
            "shortcut"
        }
        fn init_state(&self, _v: VertexId) -> u64 {
            0
        }
        fn init_active(&self, _n: usize) -> InitActive {
            InitActive::Seeds(vec![Update::new(0, 0, 0)])
        }
        fn process(&self, ctx: &mut VertexCtx<'_>) {
            if ctx.vertex() != 0 {
                ctx.set_state(ctx.state() + ctx.msgs().len() as u64);
                return;
            }
            if ctx.superstep() == 3 {
                (0..self.reps).for_each(|_| (self.update)(ctx));
            }
            if (2..=6).contains(&ctx.superstep()) {
                ctx.send_all(1);
            }
            if ctx.superstep() < 6 {
                ctx.keep_active();
            }
        }
    }

    /// An edge a program adds carries every later send exactly once, and the
    /// stored graph ends up holding it, whether the adjacency comes from the
    /// CSR or the edge log and whether the update waits in the buffer or its
    /// interval reaches the merge threshold in the superstep that made it.
    #[test]
    fn structural_update_is_the_same_pending_or_merged_edge_log_on_or_off() {
        let mut seen: Option<(Vec<u64>, mlvc_graph::Csr)> = None;
        for threads in [1usize, 8] {
            mlvc_par::set_thread_override(Some(threads));
            for edge_log in [true, false] {
                for reps in [1, STRUCTURAL_MERGE_THRESHOLD] {
                    let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
                    let iv = mlvc_graph::VertexIntervals::uniform(1024, 4);
                    let sg = StoredGraph::store_with(&ssd, &ring(1024), "g", iv).unwrap();
                    let cfg = EngineConfig::default().with_edge_log(edge_log);
                    let mut eng = MultiLogEngine::new(ssd, sg, cfg);
                    let report = eng.run(&Shortcut { reps, update: |ctx| ctx.add_edge(700) }, 12);
                    let ctx = format!("threads={threads} edge_log={edge_log} reps={reps}");
                    assert!(report.converged && report.interrupted.is_none(), "{ctx}");
                    assert_eq!(eng.state_of(700), 3, "sends of supersteps 4, 5 and 6: {ctx}");
                    assert_eq!(eng.state_of(1), 5, "{ctx}");
                    let csr = eng.graph().to_csr().unwrap();
                    assert_eq!(csr.out_edges(0), &[1, 1023, 700], "{ctx}");
                    assert_eq!(eng.graph().num_edges(), 2 * 1024 + 1, "{ctx}");
                    let m = report.mutations.expect("a merge ran");
                    assert_eq!((m.edges_added, m.edges_removed, m.intervals_merged), (1, 0, 1));
                    let merged_in_run = report.supersteps.iter().any(|s| s.mutations.merges > 0);
                    assert_eq!(merged_in_run, reps >= STRUCTURAL_MERGE_THRESHOLD, "{ctx}");
                    match &seen {
                        None => seen = Some((eng.states().to_vec(), csr)),
                        Some((states, first)) => {
                            assert_eq!(eng.states(), states.as_slice(), "{ctx}");
                            assert_eq!(&csr, first, "{ctx}");
                        }
                    }
                }
            }
        }
        mlvc_par::set_thread_override(None);
    }

    /// What the commit would refuse ends the run, with a typed error, in
    /// the superstep that asked for it — not a panic one superstep on, and
    /// not a weighted graph with its weights zeroed.
    #[test]
    fn refused_structural_updates_interrupt_the_run_in_their_superstep() {
        let mut eng = engine_for(ring(1024));
        let before = eng.graph().to_csr().unwrap();
        let report = eng.run(&Shortcut { reps: 1, update: |ctx| ctx.add_edge(70_000) }, 12);
        let err = report.interrupted.expect("an endpoint outside the graph");
        assert!(err.to_string().contains("vertex 70000 out of range"), "{err}");
        assert_eq!(report.supersteps.len(), 2, "supersteps 1 and 2 completed");
        assert_eq!(eng.graph().to_csr().unwrap(), before);

        let mut b = mlvc_graph::EdgeListBuilder::new(8);
        for v in 0..8u32 {
            b.push_weighted(v, (v + 1) % 8, 1.5);
        }
        let weighted = b.build();
        for update in [(|ctx| ctx.add_edge(3)) as fn(&mut VertexCtx<'_>), |ctx| ctx.remove_edge(1)] {
            let mut eng = engine_for(weighted.clone());
            let report = eng.run(&Shortcut { reps: 1, update }, 12);
            assert_eq!(
                report.interrupted,
                Some(MutationError::WeightedUnsupported.into_device_error())
            );
            assert_eq!(report.supersteps.len(), 2);
            assert_eq!(eng.graph().to_csr().unwrap(), weighted, "weights untouched");
        }
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

    /// The asynchronous counterpart: every message is delivered exactly once
    /// — in the superstep that sent it when its interval is still to come,
    /// in the next one otherwise — while read-side batches are in flight
    /// (and, with a second thread, decoded by look-ahead workers) and the
    /// inbox's plan of the write side (`MultiLog::plan_current`) reads and
    /// truncates pages the same superstep flushed under memory pressure.
    #[test]
    fn async_delivery_is_exactly_once_under_memory_pressure_with_reads_in_flight() {
        /// Every vertex sends 1 over all its edges in supersteps 1–3 and
        /// counts what it receives.
        struct Count;
        impl VertexProgram for Count {
            fn name(&self) -> &'static str {
                "count"
            }
            fn init_state(&self, _v: VertexId) -> u64 {
                0
            }
            fn init_active(&self, _n: usize) -> InitActive {
                InitActive::All
            }
            fn process(&self, ctx: &mut VertexCtx<'_>) {
                ctx.set_state(ctx.state() + ctx.msgs().len() as u64);
                if ctx.superstep() <= 3 {
                    ctx.send_all(1);
                }
                if ctx.superstep() < 3 {
                    ctx.keep_active();
                }
            }
        }
        let mut b = mlvc_graph::EdgeListBuilder::new(1024).symmetrize(true).dedup(true);
        for v in 0..1024u32 {
            for k in 1..9u32 {
                b.push(v, (v * 37 + k * 131) % 1024);
            }
        }
        let csr = b.drop_self_loops(true).build();
        let _pinned = THREAD_OVERRIDE.lock();
        let run = |threads: usize| {
            mlvc_par::set_thread_override(Some(threads));
            let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
            let iv = mlvc_graph::VertexIntervals::uniform(1024, 32);
            let sg = StoredGraph::store_with(&ssd, &csr, "ad", iv).unwrap();
            let cfg = EngineConfig::default().with_memory(16 << 10).with_async(true);
            let mut eng = MultiLogEngine::new(ssd, sg, cfg);
            let r = eng.run(&Count, 6);
            mlvc_par::set_thread_override(None);
            assert!(r.converged && r.interrupted.is_none());
            (eng.states().to_vec(), r)
        };
        let (states, ahead) = run(2);
        for v in 0..1024u32 {
            let degree = csr.out_edges(v).len() as u64;
            assert_eq!(states[v as usize], 3 * degree, "vertex {v}: three sends per in-edge");
        }
        let ml = ahead.multilog.unwrap();
        assert_eq!(ml.updates_read, ml.updates_logged, "every logged record drained once");
        assert!(ml.evictions > 0, "the write side must flush pages mid-superstep");
        assert!(
            ahead.supersteps.iter().any(|s| s.max_inflight > 1),
            "read-side batches must be in flight while the write side is drained"
        );
        // Same-superstep delivery happened: fewer messages crossed a
        // superstep boundary than were sent.
        let carried: u64 = ahead.supersteps.iter().map(|s| s.messages_sent).sum();
        assert!(carried < ml.updates_logged, "nothing was delivered within its superstep");
        // Who decodes a batch moves no message: the owner alone is the
        // same run.
        let (one_states, one) = run(1);
        assert_eq!(states, one_states);
        for (a, b) in ahead.supersteps.iter().zip(&one.supersteps) {
            assert_eq!(
                (a.messages_processed, a.messages_sent, a.active_vertices),
                (b.messages_processed, b.messages_sent, b.active_vertices),
                "superstep {}",
                a.superstep
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
            EngineConfig::default().with_tiering(tiering),
        );
        (ssd, eng)
    }

    #[test]
    fn tiering_reduces_device_reads_without_changing_results() {
        let csr = ring(256);
        let (ssd_a, mut plain) = tiered_engine(&csr, "a", TieringConfig::default());
        let io0 = ssd_a.stats().snapshot();
        let ra = plain.run(&Flood, 200);
        let plain_reads = ssd_a.stats().snapshot().since(&io0).pages_read;

        let tiering = TieringConfig { cache_bytes: 8 << 10, pin_budget_bytes: 4 << 10 };
        let (ssd_b, mut tiered) = tiered_engine(&csr, "b", tiering);
        let io0 = ssd_b.stats().snapshot();
        let rb = tiered.run(&Flood, 200);
        let tiered_reads = ssd_b.stats().snapshot().since(&io0).pages_read;

        assert!(ra.converged && rb.converged);
        assert_eq!(plain.states(), tiered.states(), "tiering must not change results");
        assert!(
            tiered_reads < plain_reads,
            "tiering must cut device reads ({tiered_reads} vs {plain_reads})"
        );
        assert!(ssd_b.cache().is_none(), "a tiered run attaches no cache");
        assert!(
            rb.phases().any(|s| s.pinned_pages > 0 && s.pinned_hits > 0),
            "the trace must show pinned pages serving hits"
        );
    }

    #[test]
    fn tiered_traces_are_bit_identical_across_runs() {
        let csr = ring(256);
        let tiering = TieringConfig { cache_bytes: 4 << 10, pin_budget_bytes: 2 << 10 };
        let (_sa, mut a) = tiered_engine(&csr, "t", tiering);
        let ra = a.run(&Flood, 200);
        let (_sb, mut b) = tiered_engine(&csr, "t", tiering);
        let rb = b.run(&Flood, 200);
        assert_eq!(a.states(), b.states());
        let trace = |r: &RunReport| r.phases().map(SuperstepStats::trace_fields).collect::<Vec<_>>();
        assert_eq!(trace(&ra), trace(&rb), "cache + pin activity must be deterministic");
        assert!(ra.phases().any(|s| s.cache_hits > 0), "the cache must actually hit");
    }

    /// A tiered run spends `cache_bytes + pin_budget_bytes` as one budget,
    /// held by the engine with no cache attached: how the sum is split
    /// between the two fields moves no state and no trace field.
    #[test]
    fn tiering_spends_one_budget_however_it_is_split() {
        let csr = ring(256);
        let run = |tiering: TieringConfig| {
            let (ssd, mut e) = tiered_engine(&csr, "t", tiering);
            let r = e.run(&Flood, 200);
            assert!(ssd.cache().is_none(), "{tiering:?}: a tiered run attaches no cache");
            assert!(r.phases().all(|s| s.cache_evictions == 0), "{tiering:?}: nothing to evict");
            assert!(r.phases().any(|s| s.pinned_hits > 0), "{tiering:?}: the budget must pin");
            let trace = r.phases().map(SuperstepStats::trace_fields).collect::<Vec<_>>();
            (e.states().to_vec(), trace)
        };
        let (a, b) = (4 << 10, 2 << 10);
        assert_eq!(
            run(TieringConfig { cache_bytes: a, pin_budget_bytes: b }),
            run(TieringConfig { cache_bytes: 0, pin_budget_bytes: a + b }),
            "only the sum of the two fields may matter"
        );
    }

    /// A merge of a tiered program's own structural updates drops exactly
    /// the held pages of the intervals it rewrote. `Shortcut` at the merge
    /// threshold merges vertex 0's update at superstep 3's close; at one
    /// update it waits for the drive's end. Up to that close the two runs
    /// read the same pages, so their superstep-3 held-page gauges differ by
    /// the pages of interval 0 its actives (vertices 0 and 1) read: row
    /// pointer page 0 and column-index page 0. Interval 0 still ranks, so
    /// the pins come back and serve hits after the merge, and the states
    /// are the untiered run's.
    #[test]
    fn a_merge_drops_exactly_the_dirty_intervals_held_pages() {
        let csr = ring(1024);
        let tiering = TieringConfig { cache_bytes: 0, pin_budget_bytes: 64 << 10 };
        let run = |tiering: TieringConfig, reps: usize| {
            let (_ssd, mut e) = tiered_engine(&csr, "m", tiering);
            let r = e.run(&Shortcut { reps, update: |ctx| ctx.add_edge(700) }, 12);
            assert!(r.converged && r.interrupted.is_none(), "{tiering:?} reps={reps}");
            (e.states().to_vec(), r)
        };
        let (untiered, _) = run(TieringConfig::default(), STRUCTURAL_MERGE_THRESHOLD);
        let (states, merged) = run(tiering, STRUCTURAL_MERGE_THRESHOLD);
        let (_, waited) = run(tiering, 1);
        assert_eq!(states, untiered, "tiering changed a merging run's states");
        let at = |r: &RunReport, k: usize| r.supersteps[k - 1];
        assert_eq!(at(&merged, 3).mutations.merges, 1, "no merge at superstep 3's close");
        assert_eq!(at(&waited, 3).mutations.merges, 0);
        assert_eq!(at(&waited, 3).pinned_pages - at(&merged, 3).pinned_pages, 2);
        assert!(merged.supersteps[3..].iter().any(|s| s.pinned_hits > 0), "no pin came back");
    }
}
