//! Crash-point sweep: crash the device at *every* page write of a
//! checkpointed run, recover, and demand bit-identical final state
//! (DESIGN.md §11).
//!
//! For each application the sweep
//!
//! 1. runs fault-free with checkpointing to get the golden states and the
//!    total number of page writes `W`,
//! 2. for every crash point `c ∈ 1..=W`: re-runs on a fresh device with
//!    [`FaultPlan::crash_after(c, seed)`] installed (the crashed run ends
//!    with `report.interrupted`), revives the device, and resumes with
//!    [`MultiLogEngine::run_recoverable`],
//! 3. asserts the recovered states equal the golden states bit-for-bit,
//!    that whatever checkpoint is durable after the crash decodes
//!    cleanly — a crash *during* checkpointing must never corrupt the
//!    previous checkpoint — and that the recovery resumed from exactly
//!    that checkpoint.
//!
//! The sweep asks a factory for the program of each of the three runs. A
//! factory that builds a fresh program each time models a process crash:
//! nothing the crashed run's program held survives into the resume. A
//! tiered sweep models the same for the page cache and the multi-log: the
//! resume starts on a fresh cache and a fresh multi-log, so a log page that
//! only ever lived in host memory (held by log-tail retention, DESIGN.md
//! §18) is gone.

use std::sync::Arc;

use multilogvc::apps::{Bfs, Coloring, KCore, PageRank};
use multilogvc::core::{Engine, EngineConfig, MultiLogEngine, TieringConfig, VertexProgram};
use multilogvc::graph::{StoredGraph, VertexIntervals};
use multilogvc::recover::manifest::CKPT_RECORD;
use multilogvc::recover::{CheckpointManager, CKPT_VERSION};
use multilogvc::ssd::{DeviceError, FaultPlan, PageCache, Ssd, SsdConfig};

/// Checkpoint tag used by the engine (`mlvc-core`'s `CKPT_TAG`).
const TAG: &str = "mlvc";

fn small_graph() -> multilogvc::graph::Csr {
    mlvc_gen::erdos_renyi(40, 120, 7)
}

fn cfg() -> EngineConfig {
    EngineConfig::default()
        .with_memory(64 << 10)
        .with_checkpoint_every(2)
}

/// Fresh small-page device with the graph stored on it.
fn device(g: &multilogvc::graph::Csr) -> (Arc<Ssd>, Arc<StoredGraph>) {
    let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
    let iv = VertexIntervals::uniform(g.num_vertices(), 8);
    let sg = Arc::new(StoredGraph::store_with(&ssd, g, "cr", iv).unwrap());
    (ssd, sg)
}

/// Builds the program for one run of the sweep.
type Factory<'a> = &'a dyn Fn() -> Arc<dyn VertexProgram>;

/// A factory that builds a fresh program for every run: a process crash.
fn fresh<P: VertexProgram + 'static>(make: fn() -> P) -> impl Fn() -> Arc<dyn VertexProgram> {
    move || Arc::new(make())
}

fn sweep(program: Factory<'_>, steps: usize) {
    sweep_with(program, steps, &cfg());
}

/// [`sweep`] under `cfg`. With tiering on, each resume runs on a fresh
/// page cache of the configured size.
fn sweep_with(program: Factory<'_>, steps: usize, cfg: &EngineConfig) {
    let cfg = || cfg.clone();
    let g = small_graph();
    let prog = program();

    // Golden fault-free run (checkpointing on, so the sweep also covers
    // crash points inside checkpoint writes).
    let (ssd, sg) = device(&g);
    let writes_before = ssd.fault_counters().page_writes;
    let mut golden_eng =
        MultiLogEngine::with_shared_graph(Arc::clone(&ssd), Arc::clone(&sg), cfg());
    let golden_report = golden_eng.run(prog.as_ref(), steps);
    assert!(golden_report.interrupted.is_none(), "golden run must not fault");
    assert!(
        golden_report.supersteps.iter().any(|s| s.checkpointed),
        "cadence 2 must checkpoint at least once"
    );
    let golden: Vec<u64> = golden_eng.states().to_vec();
    let total_writes = ssd.fault_counters().page_writes - writes_before;
    assert!(total_writes > 0, "{} wrote no pages", prog.name());
    let mut retained_on_resume = 0;

    for crash_at in 1..=total_writes {
        let (ssd, sg) = device(&g);
        ssd.install_fault_plan(FaultPlan::crash_after(crash_at, 0xC0DE ^ crash_at));
        let mut eng = MultiLogEngine::with_shared_graph(Arc::clone(&ssd), Arc::clone(&sg), cfg());
        let crashed = eng.run(program().as_ref(), steps);
        assert!(
            crashed.interrupted.is_some(),
            "{}: crash at write {crash_at}/{total_writes} did not interrupt the run",
            prog.name()
        );

        // Whatever checkpoint is durable after the crash must decode
        // cleanly: a torn checkpoint write falls back to the previous
        // slot, never to garbage.
        ssd.revive();
        let mgr = CheckpointManager::open(&ssd, TAG).unwrap();
        let latest = mgr.load_latest().unwrap();
        if let Some((superstep, cp)) = &latest {
            assert_eq!(cp.states.len(), g.num_vertices());
            assert!(
                *superstep as usize <= steps,
                "checkpoint superstep {superstep} beyond the run"
            );
        }

        // Resume from the last durable checkpoint (or from scratch when
        // the crash predates the first checkpoint).
        if cfg().tiering.budget_bytes() > 0 {
            ssd.attach_cache(Arc::new(PageCache::new(0)));
        }
        let mut rec = MultiLogEngine::with_shared_graph(Arc::clone(&ssd), Arc::clone(&sg), cfg());
        let recovered = rec.run_recoverable(program().as_ref(), steps);
        assert!(
            recovered.interrupted.is_none(),
            "{}: recovery after crash at write {crash_at} faulted: {:?}",
            prog.name(),
            recovered.interrupted
        );
        assert_eq!(
            rec.states(),
            golden.as_slice(),
            "{}: states diverge after crash at write {crash_at}/{total_writes}",
            prog.name()
        );
        // A run that silently restarted from scratch reaches the same
        // states: the resume must start from the checkpoint that survived.
        assert_eq!(
            recovered.resumed_from,
            latest.map(|(_, cp)| cp.superstep),
            "{}: crash at write {crash_at}",
            prog.name()
        );
        retained_on_resume += recovered.multilog.map_or(0, |m| m.pages_retained);
    }
    if cfg().tiering.pin_budget_bytes > 0 {
        assert!(retained_on_resume > 0, "no resume retained a restored log page");
    }
}

#[test]
fn bfs_recovers_bit_identical_from_any_crash_point() {
    sweep(&fresh(|| Bfs::new(0)), 30);
}

#[test]
fn pagerank_recovers_bit_identical_from_any_crash_point() {
    sweep(&fresh(PageRank::default), 6);
}

/// PageRank with a page cache, topology pins and log-tail retention armed,
/// to a tolerance that keeps it sending through every checkpoint: the
/// crashed run loses its pinned tier and its held log pages with the
/// process, the resume restores the checkpointed log pages on a fresh
/// cache — holding what the budget covers, unwritten — and still ends
/// bit-identical.
#[test]
fn pagerank_with_retention_recovers_bit_identical_from_any_crash_point() {
    let page = SsdConfig::test_small().page_size;
    let tiering = TieringConfig { cache_bytes: 16 * page, pin_budget_bytes: 16 * page };
    sweep_with(&fresh(|| PageRank::new(0.85, 1e-9)), 4, &cfg().with_tiering(tiering));
}

/// Coloring with one program object for all three runs: a device crash in
/// a live process, recovered in place, where the program's neighbour
/// table outlives the crash. A process crash loses that table; that leg
/// is `coloring_recovers_from_a_process_crash`.
#[test]
fn coloring_recovers_bit_identical_from_any_crash_point() {
    let shared: Arc<dyn VertexProgram> = Arc::new(Coloring::new());
    sweep(&|| Arc::clone(&shared), 40);
}

#[test]
#[ignore = "ROADMAP item 9: a resumed drive never calls init_active, so the fresh \
            program's neighbour table is empty — panicked at crates/apps/src/coloring.rs:128:34: \
            index out of bounds: the len is 0 but the index is 2"]
fn coloring_recovers_from_a_process_crash() {
    sweep(&fresh(Coloring::new), 40);
}

#[test]
#[ignore = "ROADMAP item 9: a resumed drive never calls init_active, so the fresh \
            program's neighbour table is empty — panicked at crates/apps/src/kcore.rs:85:34: \
            index out of bounds: the len is 0 but the index is 0"]
fn kcore_recovers_from_a_process_crash() {
    sweep(&fresh(KCore::new), 40);
}

/// Transient read faults within the device retry bound are invisible to
/// the engine: same states, nonzero retries charged.
#[test]
fn bounded_read_faults_do_not_change_results() {
    let g = small_graph();
    let (ssd, sg) = device(&g);
    let mut eng = MultiLogEngine::with_shared_graph(Arc::clone(&ssd), Arc::clone(&sg), cfg());
    let r = eng.run(&Bfs::new(0), 30);
    assert!(r.interrupted.is_none());
    let golden: Vec<u64> = eng.states().to_vec();

    let (ssd, sg) = device(&g);
    ssd.install_fault_plan(FaultPlan::default().with_read_faults(5, 2));
    let mut eng = MultiLogEngine::with_shared_graph(Arc::clone(&ssd), Arc::clone(&sg), cfg());
    let r = eng.run(&Bfs::new(0), 30);
    assert!(r.interrupted.is_none(), "retryable faults must be absorbed: {:?}", r.interrupted);
    assert_eq!(eng.states(), golden.as_slice());
    assert!(ssd.fault_counters().retries_charged > 0, "faults must actually fire");
}

/// A report names its engine and job however early the run ends: a resume
/// refused before the drive starts — the device holds a checkpoint of a
/// format this build does not read — reports both, beside the error.
#[test]
fn a_refused_resume_still_names_its_engine_and_job() {
    let (ssd, sg) = device(&small_graph());
    let tag = "refused";
    let future = multilogvc::recover::RecordFormat { version: CKPT_VERSION + 1, ..CKPT_RECORD };
    let manifest = ssd.open_or_create(&format!("{tag}.ckpt.manifest.a")).unwrap();
    ssd.append_page(manifest, &future.encode(1, &[0; CKPT_RECORD.fixed_bytes])).unwrap();
    let mut eng = MultiLogEngine::with_shared_graph(ssd, sg, cfg().with_tag(tag));
    let r = eng.run_recoverable(&Bfs::new(0), 30);
    assert!(
        matches!(&r.interrupted, Some(DeviceError::Corrupt { what: "checkpoint", .. })),
        "{:?}",
        r.interrupted
    );
    assert!(r.supersteps.is_empty(), "nothing ran");
    assert_eq!((r.engine.as_str(), r.job_id.as_str()), ("MultiLogVC", tag));
}

/// A checkpoint is resumed only by the run it was taken of (DESIGN.md
/// §11): the same program on the same graph. Two runs leave checkpoints
/// under the engine's tag on one device — PageRank on graph A, then the
/// same budget and tag on graph B of the same vertex count, and WCC on
/// graph A — and each other run refuses them: `resume` with a typed
/// `foreign-checkpoint` error before anything runs, `run_recoverable` by
/// starting fresh and ending where a fresh run ends. PageRank on graph A
/// still resumes its own checkpoint.
#[test]
fn a_checkpoint_of_another_program_or_graph_is_not_resumed() {
    use multilogvc::apps::Wcc;
    use multilogvc::core::ConfigError;

    let (graph_a, graph_b) = (mlvc_gen::erdos_renyi(40, 120, 7), mlvc_gen::erdos_renyi(40, 120, 8));
    assert_eq!(graph_a.num_vertices(), graph_b.num_vertices());
    assert_ne!(graph_a.fingerprint(), graph_b.fingerprint());
    let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
    let store = |g: &multilogvc::graph::Csr| {
        let iv = VertexIntervals::uniform(g.num_vertices(), 8);
        Arc::new(StoredGraph::store_with(&ssd, g, "cr", iv).unwrap())
    };
    let engine = |g: &multilogvc::graph::Csr| {
        MultiLogEngine::with_shared_graph(Arc::clone(&ssd), store(g), cfg().with_checkpoint_every(1))
    };
    let fresh = |prog: &dyn VertexProgram, g: &multilogvc::graph::Csr| {
        let mut eng = MultiLogEngine::with_shared_graph(device(g).0, device(g).1, cfg());
        assert!(eng.run(prog, 30).interrupted.is_none());
        eng.states().to_vec()
    };
    let pagerank = PageRank::new(0.85, 1e-9);
    // Each case: the run that leaves the checkpoint, then the foreign run.
    let cases: [(&dyn VertexProgram, &_, &dyn VertexProgram, &_, &str); 2] = [
        (&pagerank, &graph_a, &pagerank, &graph_b, "graph"),
        (&pagerank, &graph_a, &Wcc, &graph_a, "program"),
    ];
    for (owner, owner_graph, other, other_graph, differs) in cases {
        assert!(engine(owner_graph).run(owner, 4).interrupted.is_none());
        let refused = engine(other_graph).resume(other, 30).err();
        let want = ConfigError::ForeignCheckpoint { app: other.name(), differs };
        assert_eq!(refused, Some(want), "{} on another {differs}", other.name());
        assert_eq!(want.code(), "foreign-checkpoint");
        let mut eng = engine(other_graph);
        let r = eng.run_recoverable(other, 30);
        assert!(r.interrupted.is_none(), "{}: {:?}", other.name(), r.interrupted);
        assert_eq!(r.resumed_from, None, "{} resumed a foreign checkpoint", other.name());
        assert_eq!(eng.states(), fresh(other, other_graph), "{} on another {differs}", other.name());
    }
    // The owner's own checkpoint still resumes.
    assert!(engine(&graph_a).run(&pagerank, 4).interrupted.is_none());
    let mut eng = engine(&graph_a);
    let r = eng.resume(&pagerank, 30).unwrap();
    assert_eq!(r.resumed_from, Some(4));
    assert_eq!(eng.states(), fresh(&pagerank, &graph_a));
}
