use std::borrow::Cow;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use mlvc_graph::{
    Adjacency, GraphLoader, IntervalId, StoredGraph, StructuralUpdateBuffer, VertexId,
};
use mlvc_log::{
    group_by_dest, plan_fusion, BatchPlan, BitSet, EdgeLogConfig, EdgeLogOptimizer, FusedBatch,
    LogReader, MultiLog, MultiLogConfig, Update,
};
use mlvc_mutate::{validate_range, MutationError, MutationLog};
use mlvc_par::{Scope, ScopedJoinHandle, Tracked};
use mlvc_recover::CheckpointState;
use mlvc_ssd::sync::Mutex;
use mlvc_ssd::{DeviceError, IoQueue, Ssd, SsdStatsSnapshot, Ticket};

use crate::checkpoint::{load_resume_point, Checkpointer};
use crate::merge::{merge_pending, STRUCTURAL_MERGE_THRESHOLD};
use crate::tiering::{attach_cache, Tiering};
use crate::trace::Tracer;
use crate::{
    Combine, ConfigError, Engine, EngineConfig, InitActive, Reconverge, RunReport, SendSink,
    SuperstepStats, VertexCtx, VertexOutputs, VertexProgram,
};

/// Active vertices an interval must bring before its process stage forks
/// (the scatter drains the sinks on the owner thread and never does). A
/// fork/join spawns scoped threads — tens of microseconds on a quiet
/// machine, several times that on a busy one — which a sparse frontier (a
/// few hundred cheap vertices per interval, once per interval per
/// superstep) never earns back: the stage then costs more than on one
/// thread and its wall time follows the machine's load instead of the
/// work. Results do not depend on the choice (DESIGN.md §12). The race
/// detector wants every fork it can get, so it keeps them all.
const FORK_MIN_ITEMS: usize = if cfg!(feature = "race-detect") { 1 } else { 2048 };

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
/// 6. logs flush, structural updates past the threshold merge through the
///    mutation commit, statistics are recorded.
pub struct MultiLogEngine {
    ssd: Arc<Ssd>,
    graph: Arc<StoredGraph>,
    cfg: EngineConfig,
    states: Vec<u64>,
    /// Shadow cell auditing the superstep state protocol: worker threads
    /// read the frozen `states` during parallel processing, the owner
    /// writes them only after the fan-out joins (DESIGN.md §14).
    states_audit: Tracked<()>,
    /// Live-ingest mutation log (DESIGN.md §17), shared with whatever is
    /// accepting edge batches (the serving daemon, `mlvc ingest`). Pending
    /// batches merge into the stored CSR at superstep boundaries, and the
    /// running program's own structural updates commit through it — when
    /// none is attached, the first such merge opens one under the run's tag
    /// and leaves it here.
    mutations: Option<Arc<Mutex<MutationLog>>>,
}

/// How the superstep driver ended: ran to convergence/cap, or was cut
/// short by a [`Reconverge::Restart`] after a mid-run mutation merge (the
/// caller re-drives from scratch on the mutated graph).
enum DriveEnd {
    Completed,
    Restart,
}

impl MultiLogEngine {
    pub fn new(ssd: Arc<Ssd>, graph: StoredGraph, cfg: EngineConfig) -> Self {
        Self::with_shared_graph(ssd, Arc::new(graph), cfg)
    }

    /// Engine over an already shared stored graph.
    pub fn with_shared_graph(ssd: Arc<Ssd>, graph: Arc<StoredGraph>, cfg: EngineConfig) -> Self {
        let cfg = cfg.validated();
        let states = vec![0u64; graph.num_vertices()];
        let states_audit = Tracked::new("MultiLogEngine::states", ());
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
        let outcome = match merge_pending(&mlog, &self.graph, self.cfg.queue_depth) {
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
        if let Err(e) = self.run_loop(prog, max_supersteps, None, reseed, &mut report) {
            report.interrupted = Some(e);
        }
        report
    }

    /// Resume from the latest valid checkpoint on this engine's device (or
    /// start fresh when none exists) and run to completion, checkpointing
    /// along the way per [`EngineConfig::checkpoint_every`].
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
        let mut report = RunReport {
            engine: self.name().to_string(),
            app: prog.name().to_string(),
            ..Default::default()
        };
        let resume =
            match load_resume_point(&self.ssd, &self.cfg.tag, self.graph.num_vertices()) {
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
        report.engine = self.name().to_string();
        report.app = prog.name().to_string();
        report.job_id = self.cfg.tag.clone();

        let mut d = Drive::enter(self, prog)?;
        let start = d.seed(resume, reseed)?;
        for superstep in start..=max_supersteps {
            if d.idle() {
                break;
            }
            if Superstep::new(&mut d, superstep).run(report)? {
                // Flush sub-threshold structural updates before abandoning
                // the run — the restart rebuilds every unit from scratch.
                d.merge_structural(1, report)?;
                return Ok(DriveEnd::Restart);
            }
        }
        report.converged = d.idle();
        d.finish(report)?;
        Ok(DriveEnd::Completed)
    }
}

/// Everything that lives from a drive's entry to its end: the engine's
/// fields (split so stages can borrow them independently), the units built
/// for this run, and the frontier carried from one superstep to the next.
pub(crate) struct Drive<'a> {
    pub(crate) ssd: &'a Arc<Ssd>,
    pub(crate) graph: &'a Arc<StoredGraph>,
    pub(crate) cfg: &'a EngineConfig,
    pub(crate) states: &'a mut Vec<u64>,
    states_audit: &'a Tracked<()>,
    pub(crate) mutations: &'a mut Option<Arc<Mutex<MutationLog>>>,
    pub(crate) prog: &'a dyn VertexProgram,

    pub(crate) multilog: MultiLog,
    pub(crate) edgelog: EdgeLogOptimizer,
    loader: GraphLoader,
    pub(crate) structural: StructuralUpdateBuffer,
    pub(crate) tiering: Tiering,
    tracer: Option<Tracer>,
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
    /// must happen: the cache attaches before any I/O, the FTL before any
    /// page write, the multi-log truncates its extents before retention is
    /// armed on them. A program that reads weights the stored graph does not
    /// have is refused before any of it.
    fn enter(
        eng: &'a mut MultiLogEngine,
        prog: &'a dyn VertexProgram,
    ) -> Result<Self, DeviceError> {
        let MultiLogEngine { ssd, graph, cfg, states, states_audit, mutations } = eng;
        let (ssd, graph, cfg) = (&*ssd, &*graph, &*cfg);
        if prog.needs_weights() && !graph.has_weights() {
            return Err(ConfigError::NeedsWeights { app: prog.name() }.into());
        }
        let intervals = graph.intervals();
        attach_cache(ssd, &cfg.tiering);
        let tracer = cfg.obs.then(|| Tracer::start(ssd));
        let multilog = MultiLog::new(
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
        let tiering = Tiering::enter(ssd, graph, &cfg.tiering, &multilog);
        let edgelog = EdgeLogOptimizer::new(
            Arc::clone(ssd),
            graph.num_vertices(),
            EdgeLogConfig { buffer_bytes: cfg.edgelog_budget(), ..Default::default() },
            &cfg.tag,
        )?;
        Ok(Drive {
            ssd,
            graph,
            cfg,
            states,
            states_audit,
            mutations,
            prog,
            multilog,
            edgelog,
            loader: GraphLoader::new(),
            structural: StructuralUpdateBuffer::new(
                intervals.clone(),
                STRUCTURAL_MERGE_THRESHOLD,
            ),
            tiering,
            tracer,
            checkpointer: Checkpointer::open(ssd, &cfg.tag, cfg.checkpoint_every)?,
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
    /// messages in superstep 1. Returns the first superstep to run.
    fn seed(
        &mut self,
        resume: Option<&CheckpointState>,
        reseed: Option<Vec<Update>>,
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
        if let Some(t) = self.tracer.as_mut() {
            let st = SuperstepStats {
                messages_sent: self.pending.iter().sum(),
                io: t.io_since_start(self.ssd),
                ..Default::default()
            };
            t.record(self.ssd, &st, 0, &self.multilog, &self.edgelog);
        }
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
        self.ssd.disarm_append_retention();
        report.multilog = Some(self.multilog.stats());
        report.edgelog = Some(self.edgelog.stats());
        if let Some(t) = self.tracer {
            t.finish(self.ssd, &self.multilog, &self.edgelog, report);
        }
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
/// into inbox)` pairs sorted by vertex.
fn actives_for_interval(
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

/// Who decodes a fused batch whose read is on the I/O queue.
enum Decoder<'s> {
    /// Nobody was given it: the owner does, where it retires the ticket.
    Owner(BatchPlan),
    /// A look-ahead worker, spawned when the read was submitted.
    Worker(ScopedJoinHandle<'s, Fetched>),
}

/// Move a submitted ticket's pages and decode them into inbox order —
/// counting-sorted, or folded when the program declared a `combine`. A pure
/// function of plan and page bytes that touches no clock, so it runs on
/// whichever thread has nothing better to do.
fn fetch_decode(
    reader: &LogReader,
    ioq: &IoQueue,
    ticket: Ticket,
    bplan: &BatchPlan,
) -> Result<FusedBatch, DeviceError> {
    reader.decode(bplan, &ioq.fetch(ticket)?)
}

/// The fetch stage of a superstep, in both computation models (DESIGN.md
/// §12): the owner keeps up to K fused-batch reads on the I/O queue, planned
/// and submitted in plan order, retires the tickets strictly in plan order
/// and consumes the drained logs there. A batch is decoded by the thread that
/// would otherwise wait for it: a batch submitted ahead of the one being
/// retired goes to a scoped look-ahead worker when the engine has a second
/// thread; the batch being retired, if nobody was given it — the first of
/// every superstep, every batch when K = 1 or on a one-thread engine — is
/// decoded by the owner, which would only have spawned a thread to join it
/// at once. Every clock-, device- and cache-touching call runs on the owner
/// thread either way, so the simulated timeline and every counter are
/// identical at any worker-thread count, K or depth.
struct Fetch<'s, 'e> {
    reader: &'e LogReader,
    ioq: &'e IoQueue,
    plan: &'e [Range<IntervalId>],
    /// Shadow cells auditing the batch handoffs, one per fused batch: the
    /// decoding thread writes its cell after decoding, the owner reads it
    /// before consuming — after joining the handle when a worker decoded,
    /// and the join edge is what makes that handoff race-free: removing it
    /// would trip the detector here (DESIGN.md §14). Sibling workers have no
    /// happens-before edge between them, hence one cell per batch.
    handoffs: &'e [Tracked<()>],
    inflight_batches: usize,
    submitted: usize,
    inflight: VecDeque<(Ticket, Decoder<'s>)>,
}

impl<'s, 'e> Fetch<'s, 'e> {
    /// Top the queue up to K batches ahead of `bi`, then retire batch `bi`,
    /// counting in `st` who decoded it.
    fn next(
        &mut self,
        scope: &Scope<'s, 'e>,
        bi: usize,
        st: &mut SuperstepStats,
    ) -> Result<FusedBatch, DeviceError> {
        while self.submitted < self.plan.len() && self.submitted < bi + self.inflight_batches {
            let bplan = self.reader.plan_reads(self.plan[self.submitted].clone())?;
            let ticket = self.ioq.submit_read(bplan.reqs.clone());
            let decoder = if self.submitted > bi && mlvc_par::max_threads() > 1 {
                let (reader, ioq) = (self.reader, self.ioq);
                let handoff = &self.handoffs[self.submitted];
                Decoder::Worker(scope.spawn(move || {
                    let batch = fetch_decode(reader, ioq, ticket, &bplan);
                    handoff.audit_write();
                    batch.map(|b| (bplan, b))
                }))
            } else {
                Decoder::Owner(bplan)
            };
            self.inflight.push_back((ticket, decoder));
            self.submitted += 1;
        }
        let Some((ticket, decoder)) = self.inflight.pop_front() else {
            return Err(DeviceError::Io(format!("no read in flight for fused batch {bi}")));
        };
        let fetched = match decoder {
            Decoder::Owner(bplan) => {
                st.batches_inline += 1;
                let batch = fetch_decode(self.reader, self.ioq, ticket, &bplan);
                self.handoffs[bi].audit_write();
                batch.map(|b| (bplan, b))
            }
            Decoder::Worker(worker) => {
                st.batches_handed_off += 1;
                worker.join().unwrap_or_else(|p| std::panic::resume_unwind(p))
            }
        };
        self.handoffs[bi].audit_read();
        let (bplan, batch) = fetched?;
        // Retire the ticket on the owner clock — any residual service time
        // the overlap could not hide is charged here — and consume the
        // logs the batch drained.
        self.ioq.complete(ticket);
        self.reader.consume(&bplan, &batch)?;
        Ok(batch)
    }
}

/// One superstep of a drive: plan → fetch → per interval (inbox → load →
/// process → scatter → apply) → close-out.
struct Superstep<'d, 'a> {
    d: &'d mut Drive<'a>,
    st: SuperstepStats,
    active_bits: BitSet,
    next_self_active: Vec<VertexId>,
}

impl<'d, 'a> Superstep<'d, 'a> {
    fn new(d: &'d mut Drive<'a>, superstep: usize) -> Self {
        let active_bits = BitSet::new(d.graph.num_vertices());
        Superstep {
            d,
            st: SuperstepStats { superstep, ..Default::default() },
            active_bits,
            next_self_active: Vec::new(),
        }
    }

    /// Run the superstep and push its stats onto `report`. Returns whether
    /// a mutation merge at the boundary asked for a restart.
    fn run(mut self, report: &mut RunReport) -> Result<bool, DeviceError> {
        let wall0 = Instant::now();
        let io0 = self.d.ssd.stats().snapshot();
        let plan = plan_fusion(&self.d.pending, self.d.cfg.sort_budget());
        // Shared-nothing handle on this superstep's inbox (the read side),
        // so a worker can decode fused batch k+1 while batch k is processed
        // and its updates are scattered into the write side. The read side
        // does not change between the flip that opened this superstep and
        // each batch's consume, so both computation models read it ahead —
        // and a batch decodes the same whenever, and wherever, it is fetched.
        let reader = self.d.multilog.reader();
        let ioq = IoQueue::new(Arc::clone(self.d.ssd), self.d.cfg.queue_depth);
        let handoffs: Vec<Tracked<()>> =
            plan.iter().map(|_| Tracked::new("engine batch handoff", ())).collect();
        // Planning the batches and opening the queue is the fetch stage's
        // time: on a sparse superstep it is most of what no other row names.
        self.st.fetch_wait_ns += wall0.elapsed().as_nanos() as u64;
        mlvc_par::scope(|scope| -> Result<(), DeviceError> {
            let mut fetch = Fetch {
                reader: &reader,
                ioq: &ioq,
                plan: &plan,
                handoffs: &handoffs,
                inflight_batches: self.d.cfg.inflight_batches,
                submitted: 0,
                inflight: VecDeque::new(),
            };
            for (bi, range) in plan.iter().enumerate() {
                let t_fetch = Instant::now();
                let batch = fetch.next(scope, bi, &mut self.st)?;
                self.st.fetch_wait_ns += t_fetch.elapsed().as_nanos() as u64;
                self.run_batch(range.clone(), &batch, &ioq)?;
            }
            Ok(())
        })?;
        self.close_out(plan.len(), &ioq, wall0, io0, report)
    }

    fn run_batch(
        &mut self,
        range: Range<IntervalId>,
        batch: &FusedBatch,
        ioq: &IoQueue,
    ) -> Result<(), DeviceError> {
        let before =
            (self.st.messages_processed, self.st.messages_delivered, self.st.edges_scanned);
        self.st.load_ns += batch.load_ns;
        self.st.sort_ns += batch.sort_ns;
        self.st.messages_processed += batch.records;
        for i in range {
            self.run_interval(i, batch)?;
        }
        // Advance the queue clock by this batch's simulated compute time,
        // so the service of batches already submitted overlaps it. The
        // deltas sum exactly to `st.compute_ns` over the superstep — in the
        // asynchronous model too, whose `inbox` adds what it drained from
        // the write side to `messages_processed` inside this batch.
        ioq.advance(self.d.cfg.cost.compute_ns(
            self.st.messages_processed - before.0,
            self.st.messages_delivered - before.1,
            self.st.edges_scanned - before.2,
        ));
        Ok(())
    }

    fn run_interval(&mut self, i: IntervalId, batch: &FusedBatch) -> Result<(), DeviceError> {
        let t_assemble = Instant::now();
        let inbox = self.inbox(i, batch)?;
        let actives = actives_for_interval(
            &inbox,
            &self.d.self_active,
            self.d.graph.intervals().range(i),
            self.d.all_active,
        );
        self.st.assemble_ns += t_assemble.elapsed().as_nanos() as u64;
        if actives.is_empty() {
            return Ok(());
        }
        let adj = self.load(i, &actives)?;
        let items = self.assemble(&actives, &inbox, &adj);
        let outputs = self.process(&items, &adj);
        self.scatter()?;
        self.apply(i, &items, &adj, outputs)
    }

    /// Interval `i`'s inbox: the contiguous dest range of the sorted batch,
    /// borrowed in place — merged, in the asynchronous model, with whatever
    /// the current superstep already logged for the interval. Under a
    /// `combine` it holds one update per destination either way.
    fn inbox<'b>(
        &mut self,
        i: IntervalId,
        batch: &'b FusedBatch,
    ) -> Result<Cow<'b, [Update]>, DeviceError> {
        let span = self.d.graph.intervals().range(i);
        let lo = batch.updates.partition_point(|u| u.dest < span.start);
        let hi = batch.updates.partition_point(|u| u.dest < span.end);
        let previous = &batch.updates[lo..hi];
        if !self.d.cfg.async_mode {
            return Ok(Cow::Borrowed(previous));
        }
        let mut extra = self.d.multilog.take_log_current(i)?;
        if extra.is_empty() {
            return Ok(Cow::Borrowed(previous));
        }
        self.st.messages_processed += extra.len() as u64;
        // `extra` is in log order: a stable sort of the small run plus a
        // two-run merge is a stable sort of the whole inbox.
        extra.sort_by_key(|u| u.dest);
        Ok(Cow::Owned(merge_by_dest(previous, &extra, self.d.prog.combine())))
    }

    /// Fetch adjacency for the interval's active vertices: from the edge log
    /// where the previous superstep staged it, from the CSR pages that
    /// actually hold active data otherwise.
    fn load(
        &mut self,
        i: IntervalId,
        actives: &[(VertexId, Range<usize>)],
    ) -> Result<Adjacency, DeviceError> {
        let t_adj = Instant::now();
        let d = &mut *self.d;
        // Most supersteps stage nothing: the edge log's read side is probed
        // per vertex only when it holds something. A vertex with structural
        // updates pending comes from the CSR until they merge, so the patch
        // below is only ever applied to stored bytes.
        let probe = d.use_elog() && !d.edgelog.read_side_is_empty();
        let vs: Vec<VertexId> = actives.iter().map(|(v, _)| *v).collect();
        let (elog_vs, csr_vs): (Vec<VertexId>, Vec<VertexId>) = if probe {
            vs.into_iter().partition(|&v| d.edgelog.contains(v) && !d.structural.names(v))
        } else {
            (Vec::new(), vs)
        };
        let mut adj =
            d.loader.load_active(d.graph, i, &csr_vs, d.prog.needs_weights(), None)?;
        if !elog_vs.is_empty() {
            self.st.edge_log_hits += elog_vs.len() as u64;
            d.edgelog.fetch(&elog_vs, &mut adj)?;
            adj.sort_by_vertex();
        }
        d.structural.patch(i, &mut adj);
        self.st.adjacency_ns += t_adj.elapsed().as_nanos() as u64;
        Ok(adj)
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

    /// Parallel vertex processing over the frozen states. Each worker
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
        let (audit, prog, seed) = (d.states_audit, d.prog, d.cfg.seed);
        let (superstep, n) = (self.st.superstep, frozen.len());
        let process = |item: &WorkItem, sink: &mut SendSink| {
            audit.audit_read();
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
    /// (DESIGN.md §12).
    fn scatter(&mut self) -> Result<(), DeviceError> {
        let t_scatter = Instant::now();
        let d = &mut *self.d;
        for j in d.graph.intervals().iter_ids() {
            for sink in &d.sinks {
                d.multilog.send_batch(j, &sink.buffers()[j as usize])?;
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
        d.states_audit.audit_write();
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

    /// Superstep close-out: page-usage accounting, the mutation merge, the
    /// log-side flip, structural merges, the retier, the checkpoint, and
    /// the superstep's statistics and trace record.
    fn close_out(
        mut self,
        fused_batches: usize,
        ioq: &IoQueue,
        wall0: Instant,
        io0: SsdStatsSnapshot,
        report: &mut RunReport,
    ) -> Result<bool, DeviceError> {
        let t_close = Instant::now();
        let d = &mut *self.d;
        let st = &mut self.st;
        let usage = d.loader.take_page_usage(d.ssd.page_size());
        st.colidx_pages_accessed = usage.len() as u64;
        st.colidx_pages_inefficient = usage
            .iter()
            .filter(|u| {
                u.useful_bytes > 0 && u.utilization() < d.edgelog.config().inefficiency_threshold
            })
            .count() as u64;
        d.tiering.note_usage(&usage);
        d.edgelog.end_superstep(&self.active_bits, &usage)?;

        let restart = d.merge_mutations(st, report)?;

        d.pending = d.multilog.finish_superstep()?;
        st.messages_sent = d.pending.iter().sum();
        let due = d.structural.threshold();
        st.mutations.absorb(&d.merge_structural(due, report)?);
        // Skipped on a restart superstep — the next drive clears and
        // re-ranks from scratch anyway, so pin fills here would be wasted
        // I/O.
        if !restart {
            d.tiering.retier(d.ssd, d.graph, &d.multilog)?;
        }
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

        let qw = ioq.take_wait_stats();
        st.io_wait_ns = qw.io_wait_ns;
        st.max_inflight = qw.max_inflight;
        st.io = d.ssd.stats().snapshot().since(&io0);
        st.compute_ns =
            d.cfg.cost.compute_ns(st.messages_processed, st.messages_delivered, st.edges_scanned);
        st.close_out_ns = t_close.elapsed().as_nanos() as u64;
        st.wall_ns = wall0.elapsed().as_nanos() as u64;
        if let Some(t) = d.tracer.as_mut() {
            t.record(d.ssd, st, fused_batches, &d.multilog, &d.edgelog);
        }
        report.supersteps.push(self.st);
        Ok(restart)
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
    /// batch it decoded in place (one thread, or K = 1) and from one a
    /// look-ahead worker was handed.
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
        /// Retire four one-interval batches, damaging the device once the
        /// first has retired — by then a worker may hold the second, never
        /// the last. Returns the error and whether the batch that raised it
        /// had been handed off.
        fn first_error(threads: usize, k: usize, damage: Damage) -> (DeviceError, bool) {
            mlvc_par::set_thread_override(Some(threads));
            let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
            let iv = mlvc_graph::VertexIntervals::uniform(100, 4);
            let cfg = MultiLogConfig { buffer_bytes: 1 << 20, ..Default::default() };
            let mut ml = MultiLog::new(Arc::clone(&ssd), iv, cfg, "t").unwrap();
            for m in 0..800u32 {
                ml.send(Update::new(m % 100, m, u64::from(m))).unwrap();
            }
            ml.finish_superstep().unwrap();
            let reader = ml.reader();
            let ioq = IoQueue::new(Arc::clone(&ssd), 4);
            let plan: Vec<Range<IntervalId>> = (0..4).map(|i| i..i + 1).collect();
            let handoffs: Vec<Tracked<()>> =
                plan.iter().map(|_| Tracked::new("engine batch handoff", ())).collect();
            let mut st = SuperstepStats::default();
            let failed = mlvc_par::scope(|scope| {
                let mut fetch = Fetch {
                    reader: &reader,
                    ioq: &ioq,
                    plan: &plan,
                    handoffs: &handoffs,
                    inflight_batches: k,
                    submitted: 0,
                    inflight: VecDeque::new(),
                };
                fetch.next(scope, 0, &mut st).expect("the device is whole for the first batch");
                match damage {
                    Damage::FlippedBit => {
                        let f = ssd.lookup("t.mlog.3.a").unwrap();
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
                (1..plan.len()).find_map(|bi| {
                    let handed_off = st.batches_handed_off;
                    let e = fetch.next(scope, bi, &mut st).err()?;
                    Some((e, st.batches_handed_off > handed_off))
                })
            });
            mlvc_par::set_thread_override(None);
            assert!(st.batches_inline > 0, "the first batch is always the owner's");
            assert_eq!(st.batches_handed_off > 0, threads > 1 && k > 1);
            failed.expect("the damage must surface")
        }

        let _pinned = THREAD_OVERRIDE.lock();
        // Whether this machine gives the engine a second thread at all.
        mlvc_par::set_thread_override(Some(2));
        let two = mlvc_par::max_threads() > 1;
        for damage in [Damage::FlippedBit, Damage::ReadFault] {
            let (inline, by_worker) = first_error(1, 2, damage);
            assert!(!by_worker, "a one-thread engine hands nothing off");
            assert!(!first_error(2, 1, damage).1, "K = 1 leaves nothing to look ahead to");
            if !two {
                continue;
            }
            let (handed_off, by_worker) = first_error(2, 2, damage);
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

    /// The asynchronous counterpart, with K = 4: every message is delivered
    /// exactly once — in the superstep that sent it when its interval is
    /// still to come, in the next one otherwise — while up to four read-side
    /// batches are in flight and `take_log_current` reads and truncates
    /// write-side pages the same superstep flushed under memory pressure.
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
        let run = |inflight: usize| {
            let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
            let iv = mlvc_graph::VertexIntervals::uniform(1024, 32);
            let sg = StoredGraph::store_with(&ssd, &csr, "ad", iv).unwrap();
            let cfg = EngineConfig::default()
                .with_memory(16 << 10)
                .with_async(true)
                .with_inflight_batches(inflight);
            let mut eng = MultiLogEngine::new(ssd, sg, cfg);
            let r = eng.run(&Count, 6);
            assert!(r.converged && r.interrupted.is_none());
            (eng.states().to_vec(), r)
        };
        let (states, ahead) = run(4);
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
        // Reading ahead moves no message: K = 1 is the same run.
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

        let tiering = TieringConfig { cache_bytes: 8 << 10, pin_budget_bytes: 4 << 10 };
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
        let tiering = TieringConfig { cache_bytes: 4 << 10, pin_budget_bytes: 2 << 10 };
        let (_sa, mut a) = tiered_engine(&csr, "t", tiering);
        let ra = a.run(&Flood, 80);
        let (_sb, mut b) = tiered_engine(&csr, "t", tiering);
        let rb = b.run(&Flood, 80);
        assert_eq!(a.states(), b.states());
        assert_eq!(ra.trace, rb.trace, "cache + pin activity must be deterministic");
        assert!(ra.trace.iter().any(|t| t.cache_hits > 0), "the cache must actually hit");
    }
}
