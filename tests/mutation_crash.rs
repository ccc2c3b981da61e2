//! Mutation crash-point sweep: crash the device at *every* page write of
//! the ingest → merge → re-converge pipeline, recover, and demand the
//! stored CSR and the recomputed states land bit-identical to the
//! fault-free run (DESIGN.md §17).
//!
//! The merge commits under the PR-2 data-before-manifest protocol, so a
//! crash at any write leaves the CSR either fully pre-merge or fully
//! post-merge — never torn. Acknowledged batches are durable only once
//! merged; the client contract is to replay the batch after a crash,
//! which the ensure-present / remove-all upsert rule makes idempotent.
//! The recovery recipe here is exactly that contract:
//!
//! 1. revive the device and re-open the mutation log (same tag),
//! 2. [`MutationLog::recover`] — re-installs a committed-but-unretired
//!    merge, then clears the log,
//! 3. re-ingest the full batch and merge (no-op for any part that
//!    already landed),
//! 4. recompute cold on the recovered graph.
//!
//! The last leg crashes a run whose *program* edits the graph (paper
//! §V-E): those edits commit through the same protocol, so steps 1–2
//! alone bring the CSR back to a superstep boundary.

use std::sync::Arc;

use multilogvc::apps::{PageRank, Wcc};
use multilogvc::core::{
    Engine, EngineConfig, InitActive, MultiLogEngine, VertexCtx, VertexProgram,
};
use multilogvc::graph::{Csr, StoredGraph, VertexIntervals};
use multilogvc::mutate::{EdgeMutation, MutationConfig, MutationLog};
use multilogvc::ssd::{FaultPlan, Ssd, SsdConfig};

const QD: usize = 4;
const TAG: &str = "mut";

fn base_graph() -> Csr {
    mlvc_gen::erdos_renyi(40, 120, 7)
}

/// A batch with effective adds, effective removes (real edges sampled
/// from the graph), duplicates, a self-loop, and a remove-absent no-op.
fn batch(g: &Csr) -> Vec<EdgeMutation> {
    let edge_of = |v: u32| {
        let lo = g.row_ptr()[v as usize] as usize;
        (v, g.col_idx()[lo])
    };
    let (r1s, r1d) = edge_of(1);
    let (r2s, r2d) = edge_of(10);
    vec![
        EdgeMutation::add(0, 25),
        EdgeMutation::add(25, 0),
        EdgeMutation::add(3, 17),
        EdgeMutation::remove(r1s, r1d),
        EdgeMutation::add(39, 5),
        EdgeMutation::remove(r2s, r2d),
        EdgeMutation::add(7, 7),
        EdgeMutation::add(0, 25), // in-batch duplicate
        EdgeMutation::remove(38, 39), // likely absent: remove is a no-op then
    ]
}

fn device(g: &Csr) -> (Arc<Ssd>, Arc<StoredGraph>) {
    let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
    let iv = VertexIntervals::uniform(g.num_vertices(), 8);
    let sg = Arc::new(StoredGraph::store_with(&ssd, g, TAG, iv).unwrap());
    (ssd, sg)
}

fn open_log(ssd: &Arc<Ssd>, sg: &StoredGraph) -> MutationLog {
    MutationLog::new(
        Arc::clone(ssd),
        sg.intervals().clone(),
        MutationConfig::default(),
        TAG,
    )
    .unwrap()
}

/// Ingest → flush → merge → cold run. Device errors are expected here —
/// the crash lands wherever the plan says — so every stage's failure
/// just ends the pipeline. Returns the final states when every stage
/// completed.
fn pipeline(
    ssd: &Arc<Ssd>,
    sg: &Arc<StoredGraph>,
    muts: &[EdgeMutation],
    prog: &dyn VertexProgram,
    steps: usize,
) -> Option<Vec<u64>> {
    let mut mlog = MutationLog::new(
        Arc::clone(ssd),
        sg.intervals().clone(),
        MutationConfig::default(),
        TAG,
    )
    .ok()?;
    mlog.ingest(muts).ok()?;
    mlog.flush().ok()?;
    mlog.merge(sg, QD).ok()?;
    let mut eng = MultiLogEngine::with_shared_graph(
        Arc::clone(ssd),
        Arc::clone(sg),
        EngineConfig::default().with_memory(64 << 10),
    );
    let r = eng.run(prog, steps);
    r.interrupted.is_none().then(|| eng.states().to_vec())
}

fn sweep(prog: &dyn VertexProgram, steps: usize) {
    let g = base_graph();
    let muts = batch(&g);

    // Golden fault-free pipeline.
    let (ssd, sg) = device(&g);
    let writes_before = ssd.fault_counters().page_writes;
    let golden = pipeline(&ssd, &sg, &muts, prog, steps).expect("golden pipeline must not fault");
    let total_writes = ssd.fault_counters().page_writes - writes_before;
    assert!(total_writes > 0, "{}: pipeline wrote no pages", prog.name());
    let golden_csr = sg.to_csr().unwrap();

    for crash_at in 1..=total_writes {
        let (ssd, sg) = device(&g);
        ssd.install_fault_plan(FaultPlan::crash_after(crash_at, 0xBEEF ^ crash_at));
        let completed = pipeline(&ssd, &sg, &muts, prog, steps).is_some();

        // Recovery per the client contract.
        ssd.revive();
        let mut mlog = open_log(&ssd, &sg);
        let replayed = mlog.recover(&sg).unwrap_or_else(|e| {
            panic!("{}: recover after crash at write {crash_at} failed: {e}", prog.name())
        });
        assert!(
            !(completed && replayed),
            "{}: a fully completed pipeline has nothing to replay",
            prog.name()
        );
        assert_eq!(mlog.pending(), 0, "recovery must leave an empty log");
        mlog.ingest(&muts).unwrap();
        mlog.merge(&sg, QD).unwrap_or_else(|e| {
            panic!("{}: replay merge after crash at write {crash_at} failed: {e}", prog.name())
        });

        assert_eq!(
            sg.to_csr().unwrap(),
            golden_csr,
            "{}: CSR diverges after crash at write {crash_at}/{total_writes}",
            prog.name()
        );
        let mut eng = MultiLogEngine::with_shared_graph(
            Arc::clone(&ssd),
            Arc::clone(&sg),
            EngineConfig::default().with_memory(64 << 10),
        );
        let r = eng.run(prog, steps);
        assert!(r.interrupted.is_none());
        assert_eq!(
            eng.states(),
            golden.as_slice(),
            "{}: states diverge after crash at write {crash_at}/{total_writes}",
            prog.name()
        );
    }
}

#[test]
fn wcc_survives_a_crash_at_every_pipeline_write() {
    sweep(&Wcc, 50);
}

#[test]
fn pagerank_survives_a_crash_at_every_pipeline_write() {
    sweep(&PageRank::default(), 6);
}

/// The incremental engine path (attached log, `reconverge`) under the
/// same sweep: crash anywhere in merge + re-convergence, recover, and
/// the replayed pipeline still lands on the golden CSR and states.
#[test]
fn attached_reconverge_survives_a_crash_at_every_write() {
    let g = base_graph();
    let muts = batch(&g);
    let prog = Wcc;
    let steps = 50;

    // Golden: cold base run, then ingest + attached incremental merge.
    let (ssd, sg) = device(&g);
    let mut eng = MultiLogEngine::with_shared_graph(
        Arc::clone(&ssd),
        Arc::clone(&sg),
        EngineConfig::default().with_memory(64 << 10),
    );
    assert!(eng.run(&prog, steps).converged);
    let writes_before = ssd.fault_counters().page_writes;
    let mut mlog = open_log(&ssd, &sg);
    mlog.ingest(&muts).unwrap();
    eng.attach_mutations(Arc::new(multilogvc::ssd::sync::Mutex::new(mlog))).unwrap();
    let inc = eng.reconverge(&prog, steps);
    assert!(inc.interrupted.is_none() && inc.converged);
    let total_writes = ssd.fault_counters().page_writes - writes_before;
    let golden_csr = sg.to_csr().unwrap();
    let golden: Vec<u64> = eng.states().to_vec();

    for crash_at in 1..=total_writes {
        let (ssd, sg) = device(&g);
        let mut eng = MultiLogEngine::with_shared_graph(
            Arc::clone(&ssd),
            Arc::clone(&sg),
            EngineConfig::default().with_memory(64 << 10),
        );
        assert!(eng.run(&prog, steps).converged, "base run is pre-fault");
        ssd.install_fault_plan(FaultPlan::crash_after(crash_at, 0xFACE ^ crash_at));
        let mut mlog = open_log(&ssd, &sg);
        // Every stage may legitimately hit the injected crash; recovery
        // below must undo whatever state the crash left behind.
        if mlog.ingest(&muts).is_ok()
            && eng
                .attach_mutations(Arc::new(multilogvc::ssd::sync::Mutex::new(mlog)))
                .is_ok()
        {
            let _ = eng.reconverge(&prog, steps);
        }

        ssd.revive();
        let mut mlog = open_log(&ssd, &sg);
        mlog.recover(&sg).unwrap();
        mlog.ingest(&muts).unwrap();
        mlog.merge(&sg, QD).unwrap();
        assert_eq!(sg.to_csr().unwrap(), golden_csr, "CSR diverges at write {crash_at}");
        let mut rec = MultiLogEngine::with_shared_graph(
            Arc::clone(&ssd),
            Arc::clone(&sg),
            EngineConfig::default().with_memory(64 << 10),
        );
        assert!(rec.run(&prog, steps).interrupted.is_none());
        assert_eq!(rec.states(), golden.as_slice(), "states diverge at write {crash_at}");
    }
}

/// A program that edits the graph while it runs (paper §V-E): every vertex
/// adds an edge in superstep 1, some remove one in superstep 2 — where
/// vertex 5 alone queues enough updates for its interval to reach the
/// engine's merge threshold (1024) and commit at that boundary, the rest
/// waiting for the end of the run — and every vertex adds another in
/// superstep 3, with messages flowing over the current lists throughout.
struct Rewire;

impl VertexProgram for Rewire {
    fn name(&self) -> &'static str {
        "rewire"
    }
    fn init_state(&self, _v: u32) -> u64 {
        0
    }
    fn init_active(&self, _n: usize) -> InitActive {
        InitActive::All
    }
    fn process(&self, ctx: &mut VertexCtx<'_>) {
        let (v, n) = (ctx.vertex(), ctx.num_vertices() as u32);
        ctx.set_state(ctx.state() + ctx.msgs().len() as u64);
        match ctx.superstep() {
            1 => ctx.add_edge((v * 7 + 3) % n),
            2 => {
                if let Some(first) = ctx.edges().get(0).filter(|_| v % 3 == 0) {
                    ctx.remove_edge(first);
                }
                if v == 5 {
                    (0..1024).for_each(|k| ctx.add_edge((5 + k % 11) % n));
                }
            }
            3 => ctx.add_edge((v * 11 + 1) % n),
            _ => return,
        }
        ctx.send_all(1);
        ctx.keep_active();
    }
}

/// The engine leg: in-run structural updates commit through the same
/// protocol, so a crash at *any* page write of a mutating run — log
/// flushes, shadow extents, manifests, installs — then `revive` and the
/// committer's `recover` leaves a stored CSR that decodes, whose edge
/// count is what its row pointers say, and in which every interval is that
/// interval of the fault-free graph after some whole number of supersteps:
/// never a row-pointer extent from one merge beside a column-index extent
/// from another.
#[test]
fn in_run_structural_updates_survive_a_crash_at_every_write() {
    const STEPS: usize = 4;
    let g = mlvc_gen::erdos_renyi(160, 960, 9);
    let run = |ssd: &Arc<Ssd>, sg: &Arc<StoredGraph>, steps: usize| {
        let cfg = EngineConfig::default().with_memory(64 << 10).with_tag("job");
        MultiLogEngine::with_shared_graph(Arc::clone(ssd), Arc::clone(sg), cfg).run(&Rewire, steps)
    };

    // Fault-free: the stored graph after 0..=STEPS whole supersteps.
    let mut after: Vec<Csr> = Vec::new();
    let mut total_writes = 0;
    for steps in 0..=STEPS {
        let (ssd, sg) = device(&g);
        let writes_before = ssd.fault_counters().page_writes;
        let r = run(&ssd, &sg, steps);
        assert!(r.interrupted.is_none());
        total_writes = ssd.fault_counters().page_writes - writes_before;
        after.push(sg.to_csr().unwrap());
        if steps == STEPS {
            let merged: Vec<u64> = r.supersteps.iter().map(|s| s.mutations.intervals_merged).collect();
            assert_eq!(merged, [0, 1, 0, 0], "vertex 5's interval commits at superstep 2");
            assert!(r.mutations.unwrap().edges_removed > 0);
        }
    }
    assert_ne!(after[STEPS], after[0]);
    assert!(total_writes > 0);

    let iv = VertexIntervals::uniform(g.num_vertices(), 8);
    for crash_at in 1..=total_writes {
        let (ssd, sg) = device(&g);
        ssd.install_fault_plan(FaultPlan::crash_after(crash_at, 0xD1CE ^ crash_at));
        let r = run(&ssd, &sg, STEPS);
        assert!(r.interrupted.is_some() || crash_at == total_writes);

        ssd.revive();
        let mut committer =
            MutationLog::new(Arc::clone(&ssd), iv.clone(), MutationConfig::default(), "job")
                .unwrap();
        committer.recover(&sg).unwrap_or_else(|e| panic!("recover at write {crash_at}: {e}"));
        let got = sg.to_csr().unwrap_or_else(|e| panic!("CSR torn at write {crash_at}: {e}"));
        assert_eq!(sg.num_edges(), got.num_edges() as u64, "edge count at write {crash_at}");
        for i in iv.iter_ids() {
            let same = |k: &Csr| iv.range(i).all(|v| k.out_edges(v) == got.out_edges(v));
            assert!(
                after.iter().any(same),
                "interval {i} after a crash at write {crash_at}/{total_writes} is a mixture"
            );
        }
    }
}
